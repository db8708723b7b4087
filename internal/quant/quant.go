// Package quant models the fixed-point arithmetic of PhotoFourier's
// electro-optic interface: the DAC quantization of activations and weights,
// split into the pseudo-negative parts the accelerator uses for signed
// operands (Sec. VI-A), and the ADC quantization of partial sums.
package quant

import (
	"fmt"
	"math"
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
