// Package jtc holds the two pieces of the PhotoFourier Compute Unit (PFCU,
// paper Sec. IV) that sit outside the engine's arithmetic: the photodetector
// models that turn each optical partial sum into charge before the shared
// ADC reads it out (Sec. V-C, and the two detection encodings discussed in
// DESIGN.md), and the process-wide counters of modeled JTC shots.
//
// The physical light propagation lives in internal/optics; the quantized
// conv execution that fires the shots, guards them against faults and reads
// out the charge wells is core.Engine.
package jtc

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// totalShots counts every modeled JTC shot process-wide: one aperture
// illumination correlated against one latched kernel tile. The engine's
// shot guard and the tiling executors feed it; batch-packed execution adds
// the PACKED shot count (multiple samples' tiles sharing one aperture count
// as one shot per latched kernel), so shot-count deltas expose packing wins
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
