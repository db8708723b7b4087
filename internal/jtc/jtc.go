// Package jtc provides the functional model of a PhotoFourier Compute Unit
// (PFCU, paper Sec. IV): an optimized on-chip JTC with a bounded number of
// input waveguides, a reduced set of active weight DACs (the small-filter
// optimization), a two-stage pipeline, and photodetector-side temporal
// accumulation feeding a shared ADC (Sec. V-C).
//
// The physical light propagation lives in internal/optics; this package is
// the fast numerical abstraction the inference engine uses, with hooks for
// detector noise and the two detection-encoding variants discussed in
// DESIGN.md.
package jtc

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"photofourier/internal/fault"
	"photofourier/internal/fourier"
	"photofourier/internal/quant"
)

// Correlate1D is the ideal noiseless JTC shot: the full 1D cross-correlation
// of signal and kernel, matching the tiling.Correlator index convention.
func Correlate1D(signal, kernel []float64) []float64 {
	return fourier.CrossCorrelate(signal, kernel)
}

// totalShots counts every modeled JTC shot process-wide: one aperture
// illumination correlated against one latched kernel tile. PFCU correlations
// and the tiling executors both feed it; batch-packed execution adds the
// PACKED shot count (multiple samples' tiles sharing one aperture count as
// one shot per latched kernel), so shot-count deltas expose packing wins
// directly. Perf snapshots read deltas of this monotonic counter.
var totalShots atomic.Int64

// Shots returns the process-wide modeled shot count (monotonic; compare
// deltas).
func Shots() int64 { return totalShots.Load() }

// AddShots records n modeled shots. The tiling executors call it with their
// scheduled (packed or per-sample) shot counts.
func AddShots(n int64) { totalShots.Add(n) }

// retriedShots counts shots re-executed after a per-shot sanity guard
// flagged a misfire. A retry is a real illumination, so it advances
// totalShots too — jtc.Shots reflects every shot the device fired,
// including recovery work.
var retriedShots atomic.Int64

// RetriedShots returns the process-wide retried shot count (monotonic;
// compare deltas).
func RetriedShots() int64 { return retriedShots.Load() }

// AddRetriedShots records n guard-triggered shot re-executions. Each also
// counts as a modeled shot (see Shots).
func AddRetriedShots(n int64) {
	retriedShots.Add(n)
	totalShots.Add(n)
}

// Detector transforms each per-channel partial sum at the photodetector
// before charge accumulation and undoes any encoding after ADC readout.
type Detector interface {
	// Detect maps one optical partial sum to accumulated charge.
	Detect(v float64) float64
	// PostReadout maps the quantized accumulated charge back to the value
	// domain.
	PostReadout(v float64) float64
	// Name identifies the detector variant in reports.
	Name() string
	// PerChannel reports whether Detect must be applied to every channel's
	// partial sum individually (square-law encoding) rather than once per
	// accumulated group (linear power encoding).
	PerChannel() bool
}

// LinearPowerDetector models intensity (power) encoding: photocurrent is
// linear in the encoded value, so charge accumulation across temporal
// accumulation cycles is a full-precision linear sum (the default, see
// DESIGN.md). Noise is additive dark-current noise plus signal-dependent
// shot noise.
type LinearPowerDetector struct {
	DarkNoise       float64
	ShotNoiseFactor float64

	mu  sync.Mutex // guards rng: Detect may run from many goroutines
	rng *rand.Rand
}

// NewLinearPowerDetector builds the default detector with the given noise
// parameters and RNG seed. Zero noise gives an exact pass-through.
func NewLinearPowerDetector(dark, shot float64, seed int64) *LinearPowerDetector {
	return &LinearPowerDetector{DarkNoise: dark, ShotNoiseFactor: shot, rng: rand.New(rand.NewSource(seed))}
}

// Detect adds detector noise to a non-negative partial sum. The noiseless
// configuration is a lock-free pass-through; noisy sampling serializes on an
// internal mutex so concurrent Detect calls are safe (results for a fixed
// seed are reproducible when the call order is deterministic, i.e. on the
// serial readout paths the engines use).
func (d *LinearPowerDetector) Detect(v float64) float64 {
	if d.DarkNoise == 0 && d.ShotNoiseFactor == 0 {
		return v
	}
	sigma := d.DarkNoise
	if d.ShotNoiseFactor > 0 && v > 0 {
		sigma = math.Hypot(sigma, d.ShotNoiseFactor*math.Sqrt(v))
	}
	d.mu.Lock()
	eps := d.rng.NormFloat64()
	d.mu.Unlock()
	return v + eps*sigma
}

// PostReadout is the identity for linear power encoding.
func (d *LinearPowerDetector) PostReadout(v float64) float64 { return v }

// NoiseFree reports whether Detect draws no randomness (a pass-through).
// Engines use it to skip or parallelize the detect stage without changing
// results.
func (d *LinearPowerDetector) NoiseFree() bool { return d.DarkNoise == 0 && d.ShotNoiseFactor == 0 }

// Name implements Detector.
func (d *LinearPowerDetector) Name() string { return "linear-power" }

// PerChannel implements Detector: photocurrent is linear in power, so a
// group's accumulated charge equals the detected sum.
func (d *LinearPowerDetector) PerChannel() bool { return false }

// SquareLawDetector models amplitude encoding with square-law detection:
// each partial sum is squared at the detector (the paper's "applying square
// function to partial sums"), squares accumulate in charge, and the digital
// side recovers sqrt after readout. Note sum-of-squares differs from
// square-of-sum, so this variant changes temporal-accumulation semantics —
// it exists to quantify that design choice (ablation bench).
type SquareLawDetector struct {
	DarkNoise float64

	mu  sync.Mutex // guards rng: Detect may run from many goroutines
	rng *rand.Rand
}

// NewSquareLawDetector builds the ablation detector variant.
func NewSquareLawDetector(dark float64, seed int64) *SquareLawDetector {
	return &SquareLawDetector{DarkNoise: dark, rng: rand.New(rand.NewSource(seed))}
}

// Detect squares the amplitude and adds dark noise. Noise sampling is
// mutex-guarded so concurrent Detect calls are safe; the noiseless
// configuration stays lock-free.
func (d *SquareLawDetector) Detect(v float64) float64 {
	out := v * v
	if d.DarkNoise > 0 {
		d.mu.Lock()
		eps := d.rng.NormFloat64()
		d.mu.Unlock()
		out += eps * d.DarkNoise
	}
	if out < 0 {
		out = 0
	}
	return out
}

// NoiseFree reports whether Detect draws no randomness (deterministic
// squaring), making its application order irrelevant.
func (d *SquareLawDetector) NoiseFree() bool { return d.DarkNoise == 0 }

// PostReadout recovers the amplitude magnitude.
func (d *SquareLawDetector) PostReadout(v float64) float64 {
	if v < 0 {
		return 0
	}
	return math.Sqrt(v)
}

// Name implements Detector.
func (d *SquareLawDetector) Name() string { return "square-law" }

// PerChannel implements Detector: squaring happens before accumulation, so
// every channel must be detected individually.
func (d *SquareLawDetector) PerChannel() bool { return true }

// PFCU is one PhotoFourier Compute Unit. The zero value is not usable; use
// NewPFCU.
type PFCU struct {
	InputWaveguides int // Ni: max 1D convolution size (256 in CG/NG)
	WeightDACs      int // active weight DACs (25: supports up to 5x5 kernels)
	PipelineDepth   int // 2 after the sample-and-hold optimization (Sec. IV-A)

	detector Detector
	shots    atomic.Int64 // number of correlations performed, for perf accounting
	faults   *fault.Injector
	shotSeq  atomic.Uint64 // 1-based shot index keying fault draws
}

// Option configures a PFCU at construction.
type Option func(*PFCU)

// WithWeightDACs overrides the number of active weight DACs (default 25,
// the paper's backward-compatibility budget for 5x5 filters).
func WithWeightDACs(n int) Option {
	return func(p *PFCU) { p.WeightDACs = n }
}

// WithFaultInjector attaches a deterministic fault injector: every
// correlation passes the per-shot sanity guard, and detected misfires are
// re-run within the injector's retry budget (retries advance Shots and
// RetriedShots). A nil injector leaves the PFCU fault-free.
func WithFaultInjector(inj *fault.Injector) Option {
	return func(p *PFCU) { p.faults = inj }
}

// NewPFCU builds a PFCU with ni input waveguides.
func NewPFCU(ni int, opts ...Option) (*PFCU, error) {
	if ni < 2 {
		return nil, fmt.Errorf("jtc: %d input waveguides is not a usable PFCU", ni)
	}
	p := &PFCU{
		InputWaveguides: ni,
		WeightDACs:      25,
		PipelineDepth:   2,
		detector:        NewLinearPowerDetector(0, 0, 0),
	}
	for _, o := range opts {
		o(p)
	}
	if p.WeightDACs < 1 {
		return nil, fmt.Errorf("jtc: %d weight DACs is invalid", p.WeightDACs)
	}
	return p, nil
}

// MaxConv returns the maximum 1D convolution size — the NConv fed to
// tiling.NewPlan.
func (p *PFCU) MaxConv() int { return p.InputWaveguides }

// Shots returns the number of correlations executed so far.
func (p *PFCU) Shots() int64 { return p.shots.Load() }

// Correlate performs one JTC shot subject to the hardware constraints: the
// signal must fit the input waveguides, the kernel tile must fit the weight
// waveguides (same count as input waveguides), its non-zero entries must not
// exceed the active weight DACs, and both operands must be non-negative
// optical amplitudes (handle signed weights with quant.PseudoNegative).
// The result follows the tiling.Correlator convention and passes through
// the detector's Detect stage sample by sample.
func (p *PFCU) Correlate(signal, kernelTile []float64) ([]float64, error) {
	if err := p.checkKernelTile(kernelTile); err != nil {
		return nil, err
	}
	if err := p.checkSignal(signal); err != nil {
		return nil, err
	}
	p.shots.Add(1)
	totalShots.Add(1)
	run := func() ([]float64, error) {
		out := Correlate1D(signal, kernelTile)
		for i, v := range out {
			out[i] = p.detector.Detect(v)
		}
		return out, nil
	}
	out, _ := run()
	if p.faults == nil || p.faults.ShotRate <= 0 {
		return out, nil
	}
	return p.guardShot(out, run)
}

// guardShot applies the transient-misfire model to one completed shot: it
// draws deterministically whether this (shot, attempt) misfires, corrupts
// the plane accordingly, runs the per-shot sanity guard, and re-fires the
// shot (rerun — a real recompute, with fresh detector noise, counted by
// Shots and RetriedShots) until the guard passes or the retry budget is
// exhausted (ErrDeviceFault). An undetectable corruption is
// value-preserving by construction, so a passed guard means an exact plane.
func (p *PFCU) guardShot(out []float64, rerun func() ([]float64, error)) ([]float64, error) {
	inj := p.faults
	shot := p.shotSeq.Add(1)
	maxAbs, cleanEnergy := fault.PlaneStats(out)
	bound := 2*maxAbs + 1
	for attempt := 0; ; attempt++ {
		kind, hit := inj.DrawShotFault(shot, 0, 0, attempt)
		if !hit {
			return out, nil
		}
		inj.NoteShotFault()
		fault.CorruptPlane(out, kind, inj.CorruptSeed(shot, 0, 0, attempt), bound)
		if fault.GuardPlane(out, bound, cleanEnergy) == nil {
			return out, nil
		}
		if attempt >= inj.MaxShotRetries {
			return nil, fmt.Errorf("jtc: %w: shot %d misfired %d times (retry budget %d)",
				fault.ErrDeviceFault, shot, attempt+1, inj.MaxShotRetries)
		}
		inj.NoteShotRetry()
		p.shots.Add(1)
		AddRetriedShots(1)
		var err error
		if out, err = rerun(); err != nil {
			return nil, err
		}
		maxAbs, cleanEnergy = fault.PlaneStats(out)
		bound = 2*maxAbs + 1
	}
}

func (p *PFCU) checkKernelTile(kernelTile []float64) error {
	if len(kernelTile) > p.InputWaveguides {
		return fmt.Errorf("jtc: kernel tile of %d exceeds %d weight waveguides", len(kernelTile), p.InputWaveguides)
	}
	if len(kernelTile) == 0 {
		return fmt.Errorf("jtc: empty kernel tile")
	}
	nz := 0
	for i, v := range kernelTile {
		if v < 0 {
			return fmt.Errorf("jtc: kernelTile[%d] = %g negative; use pseudo-negative filters", i, v)
		}
		if v != 0 {
			nz++
		}
	}
	if nz > p.WeightDACs {
		return fmt.Errorf("jtc: kernel tile has %d non-zeros but only %d weight DACs are active; partition the kernel", nz, p.WeightDACs)
	}
	return nil
}

func (p *PFCU) checkSignal(signal []float64) error {
	if len(signal) > p.InputWaveguides {
		return fmt.Errorf("jtc: signal of %d exceeds %d input waveguides", len(signal), p.InputWaveguides)
	}
	if len(signal) == 0 {
		return fmt.Errorf("jtc: empty signal")
	}
	for i, v := range signal {
		if v < 0 {
			return fmt.Errorf("jtc: signal[%d] = %g negative; optical amplitudes are non-negative", i, v)
		}
	}
	return nil
}

// TemporalAccumulator accumulates per-sample charge across up to Depth
// input-channel cycles before a single ADC readout (paper Sec. V-C). The
// accumulation itself is full precision; only the readout quantizes.
type TemporalAccumulator struct {
	Depth  int
	charge []float64
	count  int
}

// NewTemporalAccumulator creates an accumulator for vectors of the given
// width, reading out every depth additions.
func NewTemporalAccumulator(depth, width int) (*TemporalAccumulator, error) {
	if depth < 1 {
		return nil, fmt.Errorf("jtc: accumulation depth %d must be >= 1", depth)
	}
	if width < 1 {
		return nil, fmt.Errorf("jtc: accumulator width %d must be >= 1", width)
	}
	return &TemporalAccumulator{Depth: depth, charge: make([]float64, width)}, nil
}

// Add deposits one channel's detected partial sums into the charge wells.
func (t *TemporalAccumulator) Add(samples []float64) error {
	if len(samples) != len(t.charge) {
		return fmt.Errorf("jtc: sample width %d != accumulator width %d", len(samples), len(t.charge))
	}
	if t.count >= t.Depth {
		return fmt.Errorf("jtc: accumulator full (%d of %d); read it out first", t.count, t.Depth)
	}
	for i, v := range samples {
		t.charge[i] += v
	}
	t.count++
	return nil
}

// Full reports whether Depth channels have been accumulated.
func (t *TemporalAccumulator) Full() bool { return t.count >= t.Depth }

// Pending returns how many channels are currently accumulated.
func (t *TemporalAccumulator) Pending() int { return t.count }

// ReadOut converts the accumulated charge through the ADC (one conversion
// per sample), applies the detector's post-readout mapping, resets the
// wells, and returns the digital values. A nil ADC reads out at full
// precision (the paper's "fp psum" reference). Reading an empty accumulator
// is an error.
func (t *TemporalAccumulator) ReadOut(adc *quant.ADC, det Detector) ([]float64, error) {
	if t.count == 0 {
		return nil, fmt.Errorf("jtc: reading out an empty accumulator")
	}
	out := make([]float64, len(t.charge))
	for i, v := range t.charge {
		if adc != nil {
			v = adc.Convert(v)
		}
		if det != nil {
			v = det.PostReadout(v)
		}
		out[i] = v
		t.charge[i] = 0
	}
	t.count = 0
	return out, nil
}
