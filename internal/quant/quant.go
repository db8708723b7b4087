// Package quant models the fixed-point arithmetic of PhotoFourier's
// electro-optic interface: the DAC quantization of activations and weights,
// the ADC quantization of partial sums, and the pseudo-negative filter
// decomposition the accelerator uses for signed weights (Sec. VI-A).
package quant

import (
	"fmt"
	"math"
	"sort"
)

// Linear is a symmetric uniform quantizer with the given bit width: values
// are clipped to [-Max, Max] (or [0, Max] when Unsigned) and rounded to the
// nearest of 2^bits levels.
type Linear struct {
	Bits     int
	Max      float64 // full-scale magnitude; must be > 0
	Unsigned bool    // quantize [0, Max] instead of [-Max, Max]
}

// NewLinear builds a signed symmetric quantizer of 2–32 bits: one bit
// would leave it no positive level (its step, Max/0, is infinite).
func NewLinear(bits int, maxAbs float64) (*Linear, error) {
	return newLinear(bits, maxAbs, false)
}

// NewUnsigned builds an unsigned quantizer of 1–32 bits over [0, Max] —
// the natural model for optical power, which cannot be negative.
func NewUnsigned(bits int, maxVal float64) (*Linear, error) {
	return newLinear(bits, maxVal, true)
}

func newLinear(bits int, maxAbs float64, unsigned bool) (*Linear, error) {
	if err := validateLinear(bits, maxAbs, unsigned); err != nil {
		return nil, err
	}
	return &Linear{Bits: bits, Max: maxAbs, Unsigned: unsigned}, nil
}

func validateLinear(bits int, maxAbs float64, unsigned bool) error {
	minBits := 2
	if unsigned {
		minBits = 1
	}
	if bits < minBits || bits > 32 {
		return fmt.Errorf("quant: bits %d out of range [%d,32]", bits, minBits)
	}
	if !(maxAbs > 0) || math.IsInf(maxAbs, 1) || math.IsNaN(maxAbs) {
		return fmt.Errorf("quant: full scale %g must be positive and finite", maxAbs)
	}
	return nil
}

// LinearOf is NewLinear returning the quantizer by value — for hot per-sample
// paths that keep a stack-resident quantizer instead of allocating one per
// call.
func LinearOf(bits int, maxAbs float64) (Linear, error) {
	if err := validateLinear(bits, maxAbs, false); err != nil {
		return Linear{}, err
	}
	return Linear{Bits: bits, Max: maxAbs}, nil
}

// Levels returns the number of representable levels.
func (q *Linear) Levels() int { return 1 << q.Bits }

// Step returns the quantization step size.
func (q *Linear) Step() float64 {
	levels := uint64(1) << q.Bits // Levels without int overflow at 32 bits
	if q.Unsigned {
		return q.Max / float64(levels-1)
	}
	// Signed symmetric: 2^(bits-1)-1 positive levels.
	return q.Max / float64(levels/2-1)
}

// Quantize returns the nearest representable value to x (clipping to range).
func (q *Linear) Quantize(x float64) float64 {
	step := q.Step()
	lo, hi := q.bounds()
	if x < lo {
		x = lo
	}
	if x > hi {
		x = hi
	}
	return math.Round(x/step) * step
}

// bounds returns the clamp range of Quantize.
func (q *Linear) bounds() (lo, hi float64) {
	if q.Unsigned {
		return 0, q.Max
	}
	return -q.Max, q.Max
}

// QuantizeSlice quantizes every element into a new slice.
func (q *Linear) QuantizeSlice(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = q.Quantize(x)
	}
	return out
}

// MaxError returns the worst-case rounding error for in-range inputs
// (half a step).
func (q *Linear) MaxError() float64 { return q.Step() / 2 }

// ADC converts accumulated photodetector charge to digital codes. It is a
// Linear quantizer plus a frequency/power operating point used by the
// architecture model: the paper scales ADC power linearly with frequency
// (Sec. V-C) and by the Walden FOM across technology generations.
type ADC struct {
	Linear
	FreqHz float64 // sampling rate
	PowerW float64 // power at FreqHz
	Reads  int64   // number of conversions performed (for energy accounting)
}

// NewADC builds an unsigned ADC: photodetector charge is non-negative.
func NewADC(bits int, fullScale, freqHz, powerW float64) (*ADC, error) {
	l, err := NewUnsigned(bits, fullScale)
	if err != nil {
		return nil, err
	}
	if freqHz <= 0 || powerW < 0 {
		return nil, fmt.Errorf("quant: ADC freq %g Hz / power %g W invalid", freqHz, powerW)
	}
	return &ADC{Linear: *l, FreqHz: freqHz, PowerW: powerW}, nil
}

// Convert quantizes one charge sample and counts the read.
func (a *ADC) Convert(x float64) float64 {
	a.Reads++
	return a.Quantize(x)
}

// EnergyPerRead returns power/frequency — the per-conversion energy.
func (a *ADC) EnergyPerRead() float64 { return a.PowerW / a.FreqHz }

// CalibrateFullScale sets the ADC range from representative data using the
// given percentile (e.g. 0.999) so rare outliers do not waste dynamic range.
// Returns an error when data is empty or the chosen scale would be zero.
func (a *ADC) CalibrateFullScale(data []float64, percentile float64) error {
	if len(data) == 0 {
		return fmt.Errorf("quant: cannot calibrate from empty data")
	}
	if percentile <= 0 || percentile > 1 {
		return fmt.Errorf("quant: percentile %g out of (0,1]", percentile)
	}
	abs := make([]float64, len(data))
	for i, v := range data {
		abs[i] = math.Abs(v)
	}
	sort.Float64s(abs)
	idx := int(percentile*float64(len(abs))) - 1
	if idx < 0 {
		idx = 0
	}
	scale := abs[idx]
	if scale <= 0 {
		// Degenerate all-zero data: keep a tiny positive scale so
		// quantization is a no-op on zeros.
		scale = 1
	}
	a.Max = scale
	return nil
}

// PseudoNegative splits a signed filter x into two non-negative filters with
// x = p - n (paper Sec. VI-A, after [13]). Photonic hardware processes p and
// n as two separate convolution passes whose results are subtracted
// digitally — doubling compute but enabling signed weights.
func PseudoNegative(x []float64) (p, n []float64) {
	p = make([]float64, len(x))
	n = make([]float64, len(x))
	for i, v := range x {
		if v >= 0 {
			p[i] = v
		} else {
			n[i] = -v
		}
	}
	return p, n
}

// PseudoNegative2D is PseudoNegative for 2D kernels.
func PseudoNegative2D(x [][]float64) (p, n [][]float64) {
	p = make([][]float64, len(x))
	n = make([][]float64, len(x))
	for r, row := range x {
		p[r], n[r] = PseudoNegative(row)
	}
	return p, n
}

// HasNegative reports whether any element of the kernel is negative, i.e.
// whether pseudo-negative processing (2x compute) is required.
func HasNegative(x [][]float64) bool {
	for _, row := range x {
		for _, v := range row {
			if v < 0 {
				return true
			}
		}
	}
	return false
}

// SQNR returns the signal-to-quantization-noise ratio in dB between a
// reference signal and its degraded version.
func SQNR(ref, degraded []float64) float64 {
	if len(ref) != len(degraded) || len(ref) == 0 {
		return math.NaN()
	}
	var sig, noise float64
	for i := range ref {
		sig += ref[i] * ref[i]
		d := ref[i] - degraded[i]
		noise += d * d
	}
	if noise == 0 {
		return math.Inf(1)
	}
	if sig == 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(sig/noise)
}
