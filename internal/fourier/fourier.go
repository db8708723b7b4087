// Package fourier provides the discrete Fourier transform machinery used to
// simulate on-chip Fourier lenses and to accelerate large 1D correlations.
//
// The package implements an iterative radix-2 Cooley-Tukey FFT for
// power-of-two lengths and Bluestein's chirp-z algorithm for arbitrary
// lengths, plus real-input helpers and linear convolution/correlation built
// on top of them. Everything is pure Go and allocation-conscious; the hot
// paths reuse precomputed twiddle tables through the Plan type.
package fourier

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPow2 returns the smallest power of two >= n. NextPow2(0) == 1.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Plan caches the twiddle factors and bit-reversal permutation for a fixed
// power-of-two FFT length so repeated transforms avoid re-deriving them.
// A Plan is safe for concurrent use once constructed.
type Plan struct {
	n          int
	logN       int
	rev        []int        // bit-reversal permutation
	twiddle    []complex128 // forward twiddles, n/2 entries
	twiddleInv []complex128 // conjugate twiddles, so the butterfly loop never calls cmplx.Conj
}

// NewPlan creates a plan for transforms of length n, which must be a
// positive power of two.
func NewPlan(n int) (*Plan, error) {
	if !IsPow2(n) {
		return nil, fmt.Errorf("fourier: plan length %d is not a power of two", n)
	}
	p := &Plan{n: n, logN: bits.TrailingZeros(uint(n))}
	p.rev = make([]int, n)
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - p.logN))
	}
	p.twiddle = make([]complex128, n/2)
	p.twiddleInv = make([]complex128, n/2)
	for i := range p.twiddle {
		theta := -2 * math.Pi * float64(i) / float64(n)
		p.twiddle[i] = cmplx.Exp(complex(0, theta))
		p.twiddleInv[i] = cmplx.Conj(p.twiddle[i])
	}
	return p, nil
}

// N returns the transform length of the plan.
func (p *Plan) N() int { return p.n }

// Transform computes the forward DFT of x in place. len(x) must equal the
// plan length.
func (p *Plan) Transform(x []complex128) error {
	return p.transform(x, false)
}

// Inverse computes the inverse DFT of x in place, including the 1/n
// normalization.
func (p *Plan) Inverse(x []complex128) error {
	return p.transform(x, true)
}

func (p *Plan) transform(x []complex128, inverse bool) error {
	n := p.n
	if len(x) != n {
		return fmt.Errorf("fourier: input length %d does not match plan length %d", len(x), n)
	}
	// Bit-reversal reordering.
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Iterative butterflies. The size-2 and size-4 stages fuse into one
	// pass with no twiddle loads (their factors are 1 and -/+i), later
	// stages special-case k=0 the same way, and split half-slices let the
	// compiler elide bounds checks in the inner loop.
	tw := p.twiddle
	if inverse {
		tw = p.twiddleInv
	}
	if n >= 4 {
		for i := 0; i < n; i += 4 {
			a, b, c, d := x[i], x[i+1], x[i+2], x[i+3]
			ab, sb := a+b, a-b
			cd, sd := c+d, c-d
			var rot complex128
			if inverse {
				rot = complex(-imag(sd), real(sd))
			} else {
				rot = complex(imag(sd), -real(sd))
			}
			x[i] = ab + cd
			x[i+2] = ab - cd
			x[i+1] = sb + rot
			x[i+3] = sb - rot
		}
	} else if n == 2 {
		a, b := x[0], x[1]
		x[0], x[1] = a+b, a-b
	}
	// Remaining stages run in fused pairs: two consecutive radix-2 stages
	// (sizes s and 2s) combine into one radix-4-style pass that loads and
	// stores each element once instead of twice — the butterflies are
	// memory-bound, so halving the passes is the dominant win. The
	// arithmetic and its order per element are exactly the unfused
	// stages', so results are bit-identical.
	size := 8
	for ; size<<1 <= n; size <<= 2 {
		half := size >> 1
		size2 := size << 1
		stepA := n / size
		stepB := stepA >> 1
		for start := 0; start < n; start += size2 {
			blk := x[start : start+size2 : start+size2]
			// k = 0: stage-A and first stage-B twiddles are 1.
			a, b := blk[0], blk[half]
			c, d := blk[size], blk[size+half]
			a1, b1 := a+b, a-b
			c1, d1 := c+d, c-d
			blk[0], blk[size] = a1+c1, a1-c1
			tB := d1 * tw[half*stepB]
			blk[half], blk[size+half] = b1+tB, b1-tB
			for k := 1; k < half; k++ {
				wA := tw[k*stepA]
				wB1 := tw[k*stepB]
				wB2 := tw[(k+half)*stepB]
				a, b := blk[k], blk[k+half]
				c, d := blk[size+k], blk[size+k+half]
				tA := b * wA
				a1, b1 := a+tA, a-tA
				tA2 := d * wA
				c1, d1 := c+tA2, c-tA2
				tB1 := c1 * wB1
				blk[k], blk[size+k] = a1+tB1, a1-tB1
				tB2 := d1 * wB2
				blk[k+half], blk[size+k+half] = b1+tB2, b1-tB2
			}
		}
	}
	// Odd stage count leaves one final radix-2 stage spanning the array.
	if size <= n {
		half := size >> 1
		lo := x[:half:half]
		hi := x[half:size:size]
		a, b := lo[0], hi[0]
		lo[0], hi[0] = a+b, a-b
		for k := 1; k < half; k++ {
			w := tw[k]
			a := lo[k]
			b := hi[k] * w
			lo[k] = a + b
			hi[k] = a - b
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
	return nil
}

// FFT returns the forward DFT of x. The input is not modified. Arbitrary
// lengths are supported: power-of-two lengths use radix-2 Cooley-Tukey,
// other lengths use Bluestein's algorithm.
func FFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlaceAny(out, false)
	return out
}

// IFFT returns the inverse DFT of x (normalized by 1/n). The input is not
// modified.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlaceAny(out, true)
	return out
}

func fftInPlaceAny(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if IsPow2(n) {
		p, _ := PlanFor(n)
		_ = p.transform(x, inverse)
		return
	}
	bp, _ := BluesteinPlanFor(n)
	if inverse {
		_ = bp.Inverse(x)
	} else {
		_ = bp.Transform(x)
	}
}

// FFTReal computes the DFT of a real-valued input.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	fftInPlaceAny(c, false)
	return c
}

// Intensity returns |x[i]|^2 for each element — the quantity a square-law
// photodetector records.
func Intensity(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = real(v)*real(v) + imag(v)*imag(v)
	}
	return out
}

// Convolve returns the full linear convolution of a and b
// (length len(a)+len(b)-1) computed via a real-input FFT: both operands are
// real, so each transform runs at half length, and all plans and scratch
// come from the process-wide caches and pools.
func Convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	outLen := len(a) + len(b) - 1
	if outLen == 1 {
		return []float64{a[0] * b[0]}
	}
	m := NextPow2(outLen)
	rp, _ := RealPlanFor(m)
	sa := getComplex(rp.hm + 1)
	sb := getComplex(rp.hm + 1)
	rp.rfft(a, sa)
	rp.rfft(b, sb)
	for i := range sa {
		sa[i] *= sb[i]
	}
	out := make([]float64, outLen)
	rp.irfft(sa, out)
	putComplex(sa)
	putComplex(sb)
	return out
}

// CrossCorrelate returns the full linear cross-correlation of a and b:
// out[m] = sum_n a[n+m-(len(b)-1)] * b[n] for m in [0, len(a)+len(b)-1).
// Equivalently it is Convolve(a, reverse(b)). Index len(b)-1 corresponds to
// zero lag alignment of b's first element with a's first element.
func CrossCorrelate(a, b []float64) []float64 {
	rb := make([]float64, len(b))
	for i, v := range b {
		rb[len(b)-1-i] = v
	}
	return Convolve(a, rb)
}

// DFTDirect computes the DFT by the O(n^2) definition. It exists as a
// cross-check oracle for tests and for tiny transforms where FFT setup
// overhead dominates.
func DFTDirect(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			theta := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, theta))
		}
		out[k] = sum
	}
	return out
}
