package fourier

import "fmt"

// ConvPlan precomputes the frequency-domain spectrum of one fixed kernel so
// repeated convolutions against varying signals pay a single forward
// transform per call instead of two. This is the software analogue of the
// JTC's amortized weight loading: a CNN layer transforms each kernel tile
// once and correlates every shot against the cached spectrum.
//
// The plan is sized for signals up to MaxSignalLen samples; any shorter
// signal is handled exactly (the FFT length already covers the padding).
// Operands are real, so the transform runs through the half-length
// real-input path — the same code the Convolve free function uses, which
// keeps the two bit-identical on full-length signals. A ConvPlan is safe
// for concurrent use once constructed.
type ConvPlan struct {
	kLen   int
	maxSig int
	m      int // FFT length: NextPow2(maxSig + kLen - 1)
	rp     *RealPlan
	kspec  []complex128 // half spectrum of the zero-padded kernel, m/2+1 bins
	k0     float64      // degenerate m==1 case: plain product
}

// NewConvPlan builds a convolution plan for the given kernel and maximum
// signal length. Convolve then returns the full linear convolution
// (len(signal)+len(kernel)-1 samples), bit-identical to the one-shot
// Convolve free function when len(signal) == maxSignalLen.
func NewConvPlan(kernel []float64, maxSignalLen int) (*ConvPlan, error) {
	if len(kernel) == 0 {
		return nil, fmt.Errorf("fourier: conv plan needs a non-empty kernel")
	}
	if maxSignalLen < 1 {
		return nil, fmt.Errorf("fourier: conv plan max signal length %d must be >= 1", maxSignalLen)
	}
	cp := &ConvPlan{kLen: len(kernel), maxSig: maxSignalLen}
	cp.m = NextPow2(maxSignalLen + len(kernel) - 1)
	if cp.m == 1 {
		cp.k0 = kernel[0]
		return cp, nil
	}
	rp, err := RealPlanFor(cp.m)
	if err != nil {
		return nil, err
	}
	cp.rp = rp
	cp.kspec = make([]complex128, rp.hm+1)
	rp.rfft(kernel, cp.kspec)
	return cp, nil
}

// NewCorrPlan builds a plan whose Convolve computes the full linear
// cross-correlation against the given kernel (the CrossCorrelate index
// convention: zero lag at index len(kernel)-1). It is NewConvPlan on the
// reversed kernel.
func NewCorrPlan(kernel []float64, maxSignalLen int) (*ConvPlan, error) {
	rb := make([]float64, len(kernel))
	for i, v := range kernel {
		rb[len(kernel)-1-i] = v
	}
	return NewConvPlan(rb, maxSignalLen)
}

// KernelLen returns the length of the planned kernel.
func (cp *ConvPlan) KernelLen() int { return cp.kLen }

// MaxSignalLen returns the largest signal length the plan supports.
func (cp *ConvPlan) MaxSignalLen() int { return cp.maxSig }

// OutLen returns the convolution output length for a signal of length
// sigLen.
func (cp *ConvPlan) OutLen(sigLen int) int { return sigLen + cp.kLen - 1 }

// Convolve returns the full linear convolution of signal with the planned
// kernel.
func (cp *ConvPlan) Convolve(signal []float64) ([]float64, error) {
	out := make([]float64, cp.OutLen(len(signal)))
	return cp.ConvolveInto(out, signal)
}

// ConvolveInto computes the full linear convolution of signal with the
// planned kernel into dst, which must have room for OutLen(len(signal))
// samples. It returns the filled prefix of dst. Scratch comes from the
// package buffer pool, so a hot loop reusing dst performs no allocation.
func (cp *ConvPlan) ConvolveInto(dst, signal []float64) ([]float64, error) {
	return ConvolveSumInto(dst, []*ConvPlan{cp}, [][]float64{signal})
}

// ConvolveSumInto computes the sum over c of the full linear convolutions
// of signals[c] with plans[c]'s kernel into dst, the way a detector sums an
// accumulation group's channels as charge and reads out once: every signal
// is transformed, the kernel products are summed in the frequency domain
// (the first channel stores, later channels add, in channel order) and the
// sum is inverse-transformed once. The plans must share transform geometry
// and the signals one length; dst must have room for its OutLen samples.
// With one channel it is ConvolveInto.
func ConvolveSumInto(dst []float64, plans []*ConvPlan, signals [][]float64) ([]float64, error) {
	if len(plans) == 0 || len(plans) != len(signals) {
		return nil, fmt.Errorf("fourier: %d conv plans for %d signals", len(plans), len(signals))
	}
	ref := plans[0]
	sigLen := len(signals[0])
	for c, cp := range plans {
		if !ref.SharesTransform(cp) {
			return nil, fmt.Errorf("fourier: conv plan %d does not share transform geometry", c)
		}
		if len(signals[c]) != sigLen {
			return nil, fmt.Errorf("fourier: signal %d length %d, signal 0 length %d", c, len(signals[c]), sigLen)
		}
	}
	if sigLen == 0 {
		return nil, fmt.Errorf("fourier: conv plan signal is empty")
	}
	if sigLen > ref.maxSig {
		return nil, fmt.Errorf("fourier: signal length %d exceeds conv plan max %d", sigLen, ref.maxSig)
	}
	outLen := ref.OutLen(sigLen)
	if len(dst) < outLen {
		return nil, fmt.Errorf("fourier: conv plan dst length %d < output length %d", len(dst), outLen)
	}
	dst = dst[:outLen]
	if ref.m == 1 {
		y0 := signals[0][0] * ref.k0
		for c := 1; c < len(plans); c++ {
			y0 += signals[c][0] * plans[c].k0
		}
		dst[0] = y0
		return dst, nil
	}
	rp := ref.rp
	sum := getComplex(rp.hm + 1)
	rp.rfft(signals[0], sum)
	for i := range sum {
		sum[i] *= ref.kspec[i]
	}
	if len(plans) > 1 {
		sa := getComplex(rp.hm + 1)
		for c := 1; c < len(plans); c++ {
			rp.rfft(signals[c], sa)
			for i := range sum {
				sum[i] += sa[i] * plans[c].kspec[i]
			}
		}
		putComplex(sa)
	}
	rp.irfft(sum, dst)
	putComplex(sum)
	return dst, nil
}

// SpectrumLen returns the length of the half-spectrum buffer TransformSignal
// fills (one bin for the degenerate length-1 plan).
func (cp *ConvPlan) SpectrumLen() int {
	if cp.m == 1 {
		return 1
	}
	return cp.rp.hm + 1
}

// SharesTransform reports whether the two plans run at the same FFT
// geometry, i.e. a signal spectrum computed through one can be convolved
// against the other's kernel spectrum. Plans built for the same
// (kernel length, max signal length) pair always share.
func (cp *ConvPlan) SharesTransform(o *ConvPlan) bool {
	return o != nil && cp.m == o.m
}

// TransformSignal computes the forward half-spectrum of the zero-padded
// signal into spec (length SpectrumLen). The same spectrum can then be
// convolved against any number of kernel spectra through
// ConvolveSpectrumInto — the joint-transform analogue of loading one input
// frame and correlating it against every latched filter. The result is
// bit-identical to the transform ConvolveInto performs internally.
func (cp *ConvPlan) TransformSignal(spec []complex128, signal []float64) error {
	if len(signal) == 0 {
		return fmt.Errorf("fourier: conv plan signal is empty")
	}
	if len(signal) > cp.maxSig {
		return fmt.Errorf("fourier: signal length %d exceeds conv plan max %d", len(signal), cp.maxSig)
	}
	if len(spec) != cp.SpectrumLen() {
		return fmt.Errorf("fourier: spectrum buffer length %d, plan needs %d", len(spec), cp.SpectrumLen())
	}
	if cp.m == 1 {
		spec[0] = complex(signal[0], 0)
		return nil
	}
	cp.rp.rfft(signal, spec)
	return nil
}

// ConvolveSpectrumInto completes a convolution from a signal spectrum
// produced by TransformSignal on a plan sharing this plan's transform
// geometry: it multiplies by the kernel spectrum and inverse-transforms into
// dst, leaving spec untouched so it can be reused against further kernels.
// sigLen is the original signal length (sets the output length). The result
// is bit-identical to ConvolveInto on the same signal.
func (cp *ConvPlan) ConvolveSpectrumInto(dst []float64, spec []complex128, sigLen int) ([]float64, error) {
	if sigLen < 1 || sigLen > cp.maxSig {
		return nil, fmt.Errorf("fourier: signal length %d out of plan range [1,%d]", sigLen, cp.maxSig)
	}
	if len(spec) != cp.SpectrumLen() {
		return nil, fmt.Errorf("fourier: spectrum length %d, plan transform has %d bins", len(spec), cp.SpectrumLen())
	}
	outLen := cp.OutLen(sigLen)
	if len(dst) < outLen {
		return nil, fmt.Errorf("fourier: conv plan dst length %d < output length %d", len(dst), outLen)
	}
	dst = dst[:outLen]
	if cp.m == 1 {
		dst[0] = real(spec[0]) * cp.k0
		return dst, nil
	}
	sa := getComplex(cp.rp.hm + 1)
	for i := range sa {
		sa[i] = spec[i] * cp.kspec[i]
	}
	cp.rp.irfft(sa, dst)
	putComplex(sa)
	return dst, nil
}
