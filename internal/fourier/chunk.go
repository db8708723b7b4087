package fourier

import "fmt"

// Full-chunk convolution: when LockstepWidth samples share one shot and one
// kernel, the samples themselves are the lanes. Each channel's chunk
// spectra are transformed straight into one bin-major chunk plane (bin k of
// sample s at k*LockstepWidth+s, SpectrumLen*LockstepWidth entries), and
// the kernel multiply broadcasts each kernel bin over its bin row instead
// of gathering per-lane spectra, summing the group's channels for a block
// of bin rows before one store. The inverse and the window add are the
// lane path's (inverseUnnormalized, addWindow).
//
// Bit-identity with ConvolveLanesSoA and ConvolveSumInto: each lane and bin
// forms its product as xr*kr - xi*ki, xr*ki + xi*kr; channel 0 stores it
// and each later channel adds it as product + running sum, in channel
// order, with no fused multiply-add. Only where the running sum lives
// (registers instead of the work planes) and the order between lanes
// change.

// Chunkable reports whether the plan runs full chunks: every plan but the
// degenerate length-1 transform, whose one-bin lanes ConvolveLanesSoA
// handles directly.
func (cp *ConvPlan) Chunkable() bool { return cp.m > 1 }

// TransformChunkSoA computes the forward half spectra of exactly
// LockstepWidth signals into the bin-major chunk planes re/im (bin k of
// signal s at k*LockstepWidth+s, SpectrumLen*LockstepWidth entries each),
// with one lockstep transform. Lane s holds, bit for bit, the spectrum
// TransformSignalSoA writes for signals[s].
func (cp *ConvPlan) TransformChunkSoA(re, im []float64, signals [][]float64) error {
	if !cp.Chunkable() {
		return fmt.Errorf("fourier: a length-1 conv plan has no chunk path")
	}
	if len(signals) != lw {
		return fmt.Errorf("fourier: chunk of %d signals, want %d", len(signals), lw)
	}
	if n := cp.SpectrumLen() * lw; len(re) != n || len(im) != n {
		return fmt.Errorf("fourier: chunk planes %d/%d, plan needs %d", len(re), len(im), n)
	}
	for s, signal := range signals {
		if len(signal) == 0 {
			return fmt.Errorf("fourier: chunk signal %d is empty", s)
		}
		if len(signal) > cp.maxSig {
			return fmt.Errorf("fourier: chunk signal %d length %d exceeds conv plan max %d", s, len(signal), cp.maxSig)
		}
	}
	cp.rp.lockstepRfft(re, im, signals)
	return nil
}

// ConvChunk names one full-chunk convolution: one kernel's G channel plans
// against the chunk spectra of LockstepWidth samples, each sample adding
// the same window of its result into its own accumulator.
type ConvChunk struct {
	// Plans supply the kernel spectra, one per channel; all must share
	// transform geometry (SharesTransform) and be Chunkable.
	Plans []*ConvPlan
	// SpecRe and SpecIm hold the channels' chunk planes (TransformChunkSoA)
	// back to back: channel c starts at c*SpectrumLen*LockstepWidth.
	SpecRe, SpecIm []float64
	// Accs[s] accumulates sample s's Window of the OutLen(sigLen)
	// convolution samples; a nil entry skips the sample.
	Accs [LockstepWidth][]float64
	Window
}

// ConvolveChunkSoA completes a full-chunk convolution: the chunk spectra
// multiply the kernel spectra and sum over the channels, one lockstep
// inverse transform runs over the chunk's lanes, and each sample's window
// adds into its accumulator. Each window sample is bit-identical to the
// same sample of ConvolveSumInto on the sample's signals, and to the lane
// of ConvolveLanesSoA over the same spectra and plans.
func ConvolveChunkSoA(sigLen int, ch *ConvChunk) error {
	g := len(ch.Plans)
	if g == 0 || ch.Plans[0] == nil {
		return fmt.Errorf("fourier: conv chunk has no plan")
	}
	ref := ch.Plans[0]
	if !ref.Chunkable() {
		return fmt.Errorf("fourier: a length-1 conv plan has no chunk path")
	}
	if sigLen < 1 || sigLen > ref.maxSig {
		return fmt.Errorf("fourier: signal length %d out of plan range [1,%d]", sigLen, ref.maxSig)
	}
	for c, cp := range ch.Plans {
		if !ref.SharesTransform(cp) {
			return fmt.Errorf("fourier: conv chunk channel %d does not share transform geometry", c)
		}
	}
	bins := ref.SpectrumLen()
	if n := g * bins * lw; len(ch.SpecRe) != n || len(ch.SpecIm) != n {
		return fmt.Errorf("fourier: conv chunk spectrum planes %d/%d, %d channels need %d", len(ch.SpecRe), len(ch.SpecIm), g, n)
	}
	live := false
	for s, acc := range ch.Accs {
		if acc == nil {
			continue
		}
		if err := ch.Window.check(ref.OutLen(sigLen), len(acc)); err != nil {
			return fmt.Errorf("fourier: conv chunk sample %d: %w", s, err)
		}
		live = true
	}
	if !live {
		return nil
	}
	sre, sim := workPlanes(bins)
	chunkMul(sre, sim, bins, ch.SpecRe, ch.SpecIm, ch.Plans)
	c := ref.rp.inverseUnnormalized(sre, sim)
	addWindows(&ch.Accs, &ch.Window, sre, sim, c)
	putLane(sre)
	putLane(sim)
	return nil
}

// chunkMulGeneric is the portable full-chunk multiply: bin row k of
// dre/dim receives the sum over channels c of channel c's chunk row k
// (xr/xi from c*bins*lw) times plans[c]'s kernel bin k, broadcast over the
// row. Channel 0 stores, later channels add as product + running sum.
func chunkMulGeneric(dre, dim []float64, bins int, xr, xi []float64, plans []*ConvPlan) {
	stride := bins * lw
	for k := 0; k < bins; k++ {
		dr, di := row(dre, k), row(dim, k)
		for c, cp := range plans {
			kv := cp.kspec[k]
			kr, ki := real(kv), imag(kv)
			ar, ai := row(xr[c*stride:], k), row(xi[c*stride:], k)
			for s := 0; s < lw; s++ {
				x, y := ar[s], ai[s]
				pr, pi := x*kr-y*ki, x*ki+y*kr
				if c > 0 {
					pr += dr[s]
					pi += di[s]
				}
				dr[s], di[s] = pr, pi
			}
		}
	}
}
