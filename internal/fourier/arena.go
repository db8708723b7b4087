package fourier

import "fmt"

// SpectrumArena is a contiguous store of per-slot half spectra in split
// real/imaginary planes (structure-of-arrays): slot i's spectrum lives at
// re[i*bins:(i+1)*bins] and im[i*bins:(i+1)*bins]. A batch transform fills
// each distinct shot signal's slot exactly once and every kernel
// convolution reads the planes back without re-transforming — the arena is
// the frequency-domain residency of one batch.
//
// The arena only stores; the arithmetic runs through TransformSignalSoA and
// ConvolveSoAInto, which route every operation through the exact same
// floating-point sequence as TransformSignal / ConvolveSpectrumInto, so
// arena-based execution is bit-identical to the spectrum-buffer API.
type SpectrumArena struct {
	bins   int
	re, im []float64
}

// NewSpectrumArena allocates an arena of the given slot count and bins per
// slot (a ConvPlan's SpectrumLen).
func NewSpectrumArena(slots, bins int) *SpectrumArena {
	return &SpectrumArena{bins: bins, re: make([]float64, slots*bins), im: make([]float64, slots*bins)}
}

// SpectrumArenaOver wraps caller-provided backing planes (e.g. pooled
// buffers) as an arena. Both slices must hold slots*bins elements.
func SpectrumArenaOver(re, im []float64, bins int) (*SpectrumArena, error) {
	if bins < 1 {
		return nil, fmt.Errorf("fourier: arena bins %d must be >= 1", bins)
	}
	if len(re) != len(im) || len(re)%bins != 0 {
		return nil, fmt.Errorf("fourier: arena planes %d/%d must be equal multiples of %d bins", len(re), len(im), bins)
	}
	return &SpectrumArena{bins: bins, re: re, im: im}, nil
}

// Reset repoints the arena at new backing planes (same rules as
// SpectrumArenaOver), letting a pooled arena value be reused across batches
// without reallocating the struct.
func (a *SpectrumArena) Reset(re, im []float64, bins int) error {
	if bins < 1 {
		return fmt.Errorf("fourier: arena bins %d must be >= 1", bins)
	}
	if len(re) != len(im) || len(re)%bins != 0 {
		return fmt.Errorf("fourier: arena planes %d/%d must be equal multiples of %d bins", len(re), len(im), bins)
	}
	a.bins, a.re, a.im = bins, re, im
	return nil
}

// Slots returns the arena's slot count.
func (a *SpectrumArena) Slots() int { return len(a.re) / a.bins }

// Bins returns the per-slot spectrum length.
func (a *SpectrumArena) Bins() int { return a.bins }

// Slot returns slot i's real and imaginary planes.
func (a *SpectrumArena) Slot(i int) (re, im []float64) {
	return a.re[i*a.bins : (i+1)*a.bins], a.im[i*a.bins : (i+1)*a.bins]
}

// SlotRange returns the planes of the n consecutive slots from slot i,
// back to back: the layout a channel-group ConvLane reads.
func (a *SpectrumArena) SlotRange(i, n int) (re, im []float64) {
	return a.re[i*a.bins : (i+n)*a.bins], a.im[i*a.bins : (i+n)*a.bins]
}

// TransformSignalSoA computes the forward half-spectrum of the zero-padded
// signal into arena slot i. The transform is the rfft TransformSignal runs,
// followed by a pure layout split into the re/im planes — bit-identical
// spectra, SoA storage.
func (cp *ConvPlan) TransformSignalSoA(a *SpectrumArena, slot int, signal []float64) error {
	if a.bins != cp.SpectrumLen() {
		return fmt.Errorf("fourier: arena bins %d, plan needs %d", a.bins, cp.SpectrumLen())
	}
	re, im := a.Slot(slot)
	if len(signal) == 0 {
		return fmt.Errorf("fourier: conv plan signal is empty")
	}
	if len(signal) > cp.maxSig {
		return fmt.Errorf("fourier: signal length %d exceeds conv plan max %d", len(signal), cp.maxSig)
	}
	if cp.m == 1 {
		re[0], im[0] = signal[0], 0
		return nil
	}
	spec := getComplex(cp.rp.hm + 1)
	cp.rp.rfft(signal, spec)
	for i, v := range spec {
		re[i] = real(v)
		im[i] = imag(v)
	}
	putComplex(spec)
	return nil
}

// ConvolveSoAInto completes a convolution from arena slot i: the slot's
// spectrum multiplies the plan's kernel spectrum and inverse-transforms
// into dst, leaving the slot untouched for reuse against further kernels.
// The complex product is evaluated through the identical complex
// multiplication ConvolveSpectrumInto performs, so the result is
// bit-identical to the spectrum-buffer path (and therefore to
// ConvolveInto on the original signal).
func (cp *ConvPlan) ConvolveSoAInto(dst []float64, a *SpectrumArena, slot int, sigLen int) ([]float64, error) {
	if a.bins != cp.SpectrumLen() {
		return nil, fmt.Errorf("fourier: arena bins %d, plan transform has %d bins", a.bins, cp.SpectrumLen())
	}
	if sigLen < 1 || sigLen > cp.maxSig {
		return nil, fmt.Errorf("fourier: signal length %d out of plan range [1,%d]", sigLen, cp.maxSig)
	}
	outLen := cp.OutLen(sigLen)
	if len(dst) < outLen {
		return nil, fmt.Errorf("fourier: conv plan dst length %d < output length %d", len(dst), outLen)
	}
	dst = dst[:outLen]
	re, im := a.Slot(slot)
	if cp.m == 1 {
		dst[0] = re[0] * cp.k0
		return dst, nil
	}
	sa := getComplex(cp.rp.hm + 1)
	kspec := cp.kspec
	for i := range sa {
		sa[i] = complex(re[i], im[i]) * kspec[i]
	}
	cp.rp.irfft(sa, dst)
	putComplex(sa)
	return dst, nil
}
