// Package fault is the deterministic, seedable fault-injection layer of the
// PhotoFourier substrate model. The paper's accelerator is real analog
// hardware — detectors misfire, laser power drifts between calibration
// probes, ADC channels stick, aperture rows die, whole devices go down —
// and the serving stack above it (internal/core, internal/tiling,
// internal/serve) carries recovery machinery for exactly those modes. This
// package supplies the misbehavior: an Injector parsed from a compact spec
// string (carried by the backend registry's "fault"/"faultseed" keys, so
// every fault scenario is a reproducible engine spec) draws every fault
// decision from a splitmix64 hash of (seed, call, term, group, attempt) —
// deterministic, independent of goroutine scheduling, and identical across
// the planned, unplanned, and batch-major execution paths for a matching
// call sequence.
//
// Spec grammar (the value of the "fault" engine-spec key): one or more
// mode:param pairs separated by ';':
//
//	shot:RATE      per-readout transient misfire probability (corrupted or
//	               zeroed correlation plane; detected by the per-shot guard
//	               and re-run, see GuardPlane)
//	drift:RATE     multiplicative laser-power drift per engine call; the
//	               residual gain since the last calibration probe is
//	               1 + RATE*(call - probeEpoch)
//	probe:N        calibration probe interval in engine calls (default 32):
//	               each probe re-references the drift gain to 1
//	retries:N      bounded shot-retry budget per readout (default 3)
//	stuckbit:B     ADC stuck-at-1 bit index (repeatable; bits OR together)
//	deadrow:I      dead aperture tile slot (repeatable); the batch packer
//	               schedules around quarantined slots
//	outage:CALL    full device outage from engine call CALL on (calls are
//	               1-based; outage:1 is a device that never worked)
//	none           explicitly no faults (same as an empty spec)
//
// e.g. "accelerator-noisy?fault=shot:1e-3;drift:5e-5,faultseed=7".
package fault

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// ErrDeviceFault marks an unrecoverable device-level failure: a shot
// misfire that persisted through the retry budget, a full device outage, or
// a quarantine that leaves no usable aperture. It is the canonical sentinel
// of the whole stack — internal/core re-exports it, and the root facade
// re-exports that — defined here so internal/tiling (which internal/core
// imports) can wrap it without an import cycle. Test with errors.Is.
var ErrDeviceFault = errors.New("device fault")

// Kind identifies one transient shot-corruption mode.
type Kind int

const (
	// KindNaN poisons correlation-plane samples with NaN (an ADC conversion
	// glitch).
	KindNaN Kind = iota
	// KindSpike adds an off-scale spike far above the ADC envelope (a laser
	// power flash).
	KindSpike
	// KindZero zeroes the plane (a dropped shot: the detector array read
	// out before any charge accumulated).
	KindZero
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindNaN:
		return "nan"
	case KindSpike:
		return "spike"
	case KindZero:
		return "zero"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DefaultProbeInterval is the calibration probe cadence (engine calls)
// when the spec sets drift without a probe interval.
const DefaultProbeInterval = 32

// DefaultShotRetries is the bounded per-readout retry budget when the spec
// sets shot faults without a retries override.
const DefaultShotRetries = 3

// Counters is a point-in-time snapshot of an injector's fault and recovery
// accounting (all monotonic).
type Counters struct {
	// ShotFaults counts injected transient shot misfires.
	ShotFaults uint64
	// ShotRetries counts shots re-executed after a guard detection (each
	// also advances jtc.Shots through the caller).
	ShotRetries uint64
	// Recalibrations counts drift calibration probes crossed: every
	// ProbeInterval engine calls, the gain reference re-zeroes.
	Recalibrations uint64
	// Outages counts engine calls refused because the device was down.
	Outages uint64
}

// Injector is one device's deterministic fault model. The configuration
// fields are immutable after Parse; the counters are internally atomic, so
// an Injector is safe for concurrent use by every execution path of its
// engine.
type Injector struct {
	// Seed keys every fault draw (the "faultseed" spec key).
	Seed int64
	// ShotRate is the per-readout transient misfire probability.
	ShotRate float64
	// DriftRate is the multiplicative laser-power drift per engine call.
	DriftRate float64
	// ProbeInterval is the calibration probe cadence in engine calls.
	ProbeInterval uint64
	// MaxShotRetries bounds how often one readout's misfire may be re-run
	// before the shot is declared dead (ErrDeviceFault).
	MaxShotRetries int
	// StuckBits is the ADC stuck-at-1 bit mask.
	StuckBits uint64
	// OutageAt is the 1-based engine call index from which the device is
	// permanently down (0 = never).
	OutageAt uint64
	// Dead lists quarantined aperture tile slots (sorted, deduplicated).
	Dead []int

	spec string // canonical source spec, for String()

	shotFaults  atomic.Uint64
	shotRetries atomic.Uint64
	outages     atomic.Uint64
	probedEpoch atomic.Uint64 // highest drift probe epoch observed
}

// Parse builds an Injector from a fault spec ("shot:1e-3;drift:5e-5") and
// seed. An empty spec or "none" returns (nil, nil): no injector, no hooks.
func Parse(spec string, seed int64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	inj := &Injector{
		Seed:           seed,
		ProbeInterval:  DefaultProbeInterval,
		MaxShotRetries: DefaultShotRetries,
		spec:           spec,
	}
	deadSeen := map[int]bool{}
	for _, item := range strings.Split(spec, ";") {
		mode, param, ok := strings.Cut(item, ":")
		if !ok || mode == "" || param == "" {
			return nil, fmt.Errorf("fault: entry %q in %q (want mode:param)", item, spec)
		}
		switch mode {
		case "shot":
			rate, err := parseRate(mode, param)
			if err != nil {
				return nil, err
			}
			inj.ShotRate = rate
		case "drift":
			rate, err := parseRate(mode, param)
			if err != nil {
				return nil, err
			}
			inj.DriftRate = rate
		case "probe":
			n, err := strconv.ParseUint(param, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("fault: probe interval %q must be a positive integer", param)
			}
			inj.ProbeInterval = n
		case "retries":
			n, err := strconv.Atoi(param)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("fault: retry budget %q must be a non-negative integer", param)
			}
			inj.MaxShotRetries = n
		case "stuckbit":
			b, err := strconv.Atoi(param)
			if err != nil || b < 0 || b > 31 {
				return nil, fmt.Errorf("fault: stuck bit %q out of range [0,31]", param)
			}
			inj.StuckBits |= uint64(1) << b
		case "deadrow":
			r, err := strconv.Atoi(param)
			if err != nil || r < 0 {
				return nil, fmt.Errorf("fault: dead row %q must be a non-negative integer", param)
			}
			if !deadSeen[r] {
				deadSeen[r] = true
				inj.Dead = append(inj.Dead, r)
			}
		case "outage":
			n, err := strconv.ParseUint(param, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("fault: outage call %q must be a positive integer (calls are 1-based)", param)
			}
			inj.OutageAt = n
		default:
			return nil, fmt.Errorf("fault: unknown mode %q in %q (have shot, drift, probe, retries, stuckbit, deadrow, outage)", mode, spec)
		}
	}
	sort.Ints(inj.Dead)
	return inj, nil
}

func parseRate(mode, param string) (float64, error) {
	rate, err := strconv.ParseFloat(param, 64)
	if err != nil || math.IsNaN(rate) || rate < 0 || rate > 1 {
		return 0, fmt.Errorf("fault: %s rate %q out of range [0,1]", mode, param)
	}
	return rate, nil
}

// String returns the source fault spec.
func (inj *Injector) String() string { return inj.spec }

// Active reports whether any fault mode is configured at a non-zero level.
// Engines gate every hook on it, so a zero-rate injector stays bit-identical
// to no injector at all.
func (inj *Injector) Active() bool {
	return inj != nil && (inj.ShotRate > 0 || inj.DriftRate > 0 || inj.StuckBits != 0 ||
		inj.OutageAt > 0 || len(inj.Dead) > 0)
}

// DeadSlots returns the quarantined aperture tile slots (nil-safe;
// read-only).
func (inj *Injector) DeadSlots() []int {
	if inj == nil {
		return nil
	}
	return inj.Dead
}

// Counters returns a snapshot of the injector's fault accounting.
func (inj *Injector) Counters() Counters {
	if inj == nil {
		return Counters{}
	}
	return Counters{
		ShotFaults:     inj.shotFaults.Load(),
		ShotRetries:    inj.shotRetries.Load(),
		Recalibrations: inj.probedEpoch.Load() / max(inj.ProbeInterval, 1),
		Outages:        inj.outages.Load(),
	}
}

// NoteShotFault records one injected misfire.
func (inj *Injector) NoteShotFault() { inj.shotFaults.Add(1) }

// NoteShotRetry records one guard-triggered shot re-execution.
func (inj *Injector) NoteShotRetry() { inj.shotRetries.Add(1) }

// NoteOutage records one refused engine call.
func (inj *Injector) NoteOutage() { inj.outages.Add(1) }

// mix64 is the splitmix64 finalizer — the same bijective hash the engine's
// readout-noise substreams use, so fault draws are order-independent and
// reproducible.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// draw hashes the full fault coordinate. The leading tag decorrelates fault
// draws from the engine's noise substreams, which hash the same seed.
func (inj *Injector) draw(tag, call uint64, term, group, attempt int) uint64 {
	h := mix64(uint64(inj.Seed) ^ tag)
	h = mix64(h ^ call)
	h = mix64(h ^ uint64(term)<<32 ^ uint64(group))
	return mix64(h ^ uint64(attempt))
}

const (
	tagShot    = 0x73686f74 // "shot"
	tagCorrupt = 0x636f7272 // "corr"
)

// DrawShotFault decides deterministically whether the readout at (call,
// term, group, attempt) misfires, and with which corruption kind. The
// attempt index makes every retry an independent draw.
func (inj *Injector) DrawShotFault(call uint64, term, group, attempt int) (Kind, bool) {
	if inj.ShotRate <= 0 {
		return 0, false
	}
	h := inj.draw(tagShot, call, term, group, attempt)
	// Top 53 bits to a uniform in [0,1): the standard float64 trick.
	u := float64(h>>11) / (1 << 53)
	if u >= inj.ShotRate {
		return 0, false
	}
	return Kind(mix64(h) % uint64(numKinds)), true
}

// CorruptSeed keys the corruption pattern of one misfire (which samples a
// NaN glitch poisons, where a spike lands).
func (inj *Injector) CorruptSeed(call uint64, term, group, attempt int) uint64 {
	return inj.draw(tagCorrupt, call, term, group, attempt)
}

// ResidualGain returns the multiplicative laser-power gain of one engine
// call relative to the last calibration probe: drift accumulates linearly
// at DriftRate per call and re-references to 1 every ProbeInterval calls
// (the probe measures the true gain and recalibrates the DAC/ADC scales).
// The model is stateless — the residual is a pure function of the call
// index — so concurrent and out-of-order readouts stay deterministic. Probe
// crossings feed the Recalibrations counter.
func (inj *Injector) ResidualGain(call uint64) float64 {
	if inj.DriftRate <= 0 {
		return 1
	}
	probe := inj.ProbeInterval
	if probe < 1 {
		probe = 1
	}
	epoch := call - call%probe
	if epoch > 0 {
		inj.noteEpoch(epoch)
	}
	return 1 + inj.DriftRate*float64(call-epoch)
}

// noteEpoch lifts the highest-observed probe epoch (monotonic max).
func (inj *Injector) noteEpoch(epoch uint64) {
	for {
		cur := inj.probedEpoch.Load()
		if epoch <= cur || inj.probedEpoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// Down reports whether the device is in full outage at the given 1-based
// engine call index.
func (inj *Injector) Down(call uint64) bool {
	return inj.OutageAt > 0 && call >= inj.OutageAt
}

// CorruptPlane applies one misfire's corruption to a correlation plane in
// place. bound is the caller's plane-magnitude envelope (the ADC full scale
// or the Cauchy-Schwarz correlation bound); the spike lands far above it so
// GuardPlane always flags it. Corruptions GuardPlane would pass are
// value-preserving by construction (KindZero on an all-zero plane), so an
// undetected misfire can never change a result.
func CorruptPlane(plane []float64, kind Kind, seed uint64, bound float64) {
	if len(plane) == 0 {
		return
	}
	switch kind {
	case KindNaN:
		// Poison a deterministic handful of samples.
		n := 1 + int(mix64(seed)%4)
		for i := 0; i < n; i++ {
			plane[mix64(seed+uint64(i))%uint64(len(plane))] = math.NaN()
		}
	case KindSpike:
		plane[mix64(seed)%uint64(len(plane))] += 1e3 * (bound + 1)
	case KindZero:
		for i := range plane {
			plane[i] = 0
		}
	}
}

// PlaneStats returns the max magnitude and L1 energy of a clean correlation
// plane — the envelope references GuardPlane checks a suspect readout
// against. Callers derive the guard bound from the clean plane (e.g.
// 2*maxAbs+1), which keeps the guard detector-agnostic: every corruption
// CorruptPlane applies with that bound is either detected or
// value-preserving.
func PlaneStats(plane []float64) (maxAbs, energy float64) {
	for _, v := range plane {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
		energy += v
	}
	return maxAbs, energy
}

// GuardPlane is the per-shot sanity guard: it checks one observed readout
// plane against physical envelopes and returns a non-nil error (wrapping
// ErrDeviceFault) when the shot cannot be trusted and must be re-run.
//
//   - NaN/Inf anywhere: no physical charge pattern produces them.
//   - Magnitude above maxAbs (the ADC full-scale envelope with margin, or
//     the Cauchy-Schwarz correlation bound sqrt(Es*Ek) at the JTC level):
//     no valid correlation exceeds it. maxAbs <= 0 skips the check.
//   - Total energy collapse: a plane reading exactly zero while the
//     expected energy cleanEnergy is positive means the shot was dropped.
//     cleanEnergy <= 0 skips the check (an empty plane is legitimately
//     zero).
func GuardPlane(plane []float64, maxAbs, cleanEnergy float64) error {
	energy := 0.0
	for i, v := range plane {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fault: %w: non-finite readout sample %d", ErrDeviceFault, i)
		}
		if v < 0 {
			v = -v
		}
		if maxAbs > 0 && v > maxAbs {
			return fmt.Errorf("fault: %w: readout sample %d magnitude %g exceeds envelope %g", ErrDeviceFault, i, v, maxAbs)
		}
		energy += v
	}
	if cleanEnergy > 0 && energy == 0 {
		return fmt.Errorf("fault: %w: readout energy collapsed (expected %g)", ErrDeviceFault, cleanEnergy)
	}
	return nil
}
