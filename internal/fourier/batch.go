// Lockstep batched transforms: the butterfly schedule of a cached plan runs
// ONCE while up to LockstepWidth independent signals ride through it
// together. The work planes are bin-major split re/im float64 slices (bin k
// of lane s lives at k*LockstepWidth+s), so the innermost loops walk
// unit-stride lanes through fixed-size array pointers — no complex128
// shuffling, no bounds checks, no per-slot getComplex/putComplex round
// trips. The engine always runs at full width; ragged groups zero-fill the
// unused lanes (lanes are data-independent, so spare lanes transforming
// zeros cannot disturb live ones, and zero filling keeps recycled planes
// free of denormal garbage).
//
// Bit-identity: every lane executes the exact floating-point instruction
// sequence of the scalar path — each complex op is spelled out in the split
// form the compiler lowers it to (x*y -> xr*yr-xi*yi, xr*yi+xi*yr).
// The inverse normalization happens per accumulated window sample in the
// same two-term form (xr*c - xi*0 or xr*0 + xi*c, so -0 signs survive).
// Interleaving lanes changes only the order BETWEEN independent lanes, never
// the op sequence WITHIN a lane, so batched output is bit-identical to
// per-slot transforms.
package fourier

import (
	"fmt"

	"photofourier/internal/buf"
)

// LockstepWidth is the number of lanes a batched transform processes per
// lockstep pass. Larger groups amortize twiddle loads and loop overhead
// across more lanes but grow the working set (two float64 planes of
// bins*width each); 8 keeps the planes inside L2 for the conv-path FFT
// lengths while giving the out-of-order core eight independent dependency
// chains per butterfly.
const LockstepWidth = 8

// lw is the internal shorthand; the inner loops index *[lw]float64 rows so
// the compiler sees constant trip counts and elides every bounds check.
const lw = LockstepWidth

// lanePool recycles the bin-major work planes of lockstep passes, bucketed
// by size so different plan lengths do not thrash one pool.
var lanePool buf.SizedPool[float64]

func getLane(n int) []float64 { return lanePool.Get(n) }
func putLane(s []float64)     { lanePool.Put(s) }

// row returns bin k's lane row of a bin-major plane as a fixed-size array
// pointer.
func row(p []float64, k int) *[lw]float64 {
	return (*[lw]float64)(p[k*lw:])
}

// zeroLaneTail clears lanes [w, lw) of the first rows bins of a bin-major
// plane, so ragged groups never process recycled (possibly denormal)
// garbage in their spare lanes.
func zeroLaneTail(p []float64, rows, w int) {
	if w >= lw {
		return
	}
	for k := 0; k < rows; k++ {
		r := row(p, k)
		for s := w; s < lw; s++ {
			r[s] = 0
		}
	}
}

// lockstepTransform runs the plan's radix-2 schedule over lw lanes stored
// bin-major in split planes re/im (length n*lw). It replicates
// Plan.transform stage by stage — bit-reversal swaps, the fused size-2/4
// stage, fused radix-4-style stage pairs and the final odd radix-2 stage —
// with each complex operation expanded to the exact float sequence the
// scalar path executes. An inverse leaves out the 1/n normalization: the
// caller applies it to the samples it reads (addWindow).
func (p *Plan) lockstepTransform(re, im []float64, inverse bool) {
	n := p.n
	bitrevSwap(re, im, p.rev)
	tw := p.twiddle
	if inverse {
		tw = p.twiddleInv
	}
	if n >= 4 {
		fusedFirst(re, im, n, inverse)
	} else if n == 2 {
		r0, i0 := row(re, 0), row(im, 0)
		r1, i1 := row(re, 1), row(im, 1)
		for s := 0; s < lw; s++ {
			ar, ai := r0[s], i0[s]
			br, bi := r1[s], i1[s]
			r0[s], i0[s] = ar+br, ai+bi
			r1[s], i1[s] = ar-br, ai-bi
		}
	}
	size := 8
	for ; size<<1 <= n; size <<= 2 {
		fusedPair(re, im, tw, n, size)
	}
	if size <= n {
		final2(re, im, tw, n)
	}
}

// bitrevSwapGeneric is the portable bit-reversal row permutation.
func bitrevSwapGeneric(re, im []float64, rev []int) {
	for i, j := range rev {
		if i < j {
			ri, rj := row(re, i), row(re, j)
			qi, qj := row(im, i), row(im, j)
			for s := 0; s < lw; s++ {
				ri[s], rj[s] = rj[s], ri[s]
				qi[s], qj[s] = qj[s], qi[s]
			}
		}
	}
}

// fusedFirstGeneric is the portable fused size-2/4 first stage (lanes
// innermost over the bin-major planes). The amd64 build replaces the
// dispatch target with a packed SSE2 or AVX-512F kernel computing the
// identical per-lane float sequence.
func fusedFirstGeneric(re, im []float64, n int, inverse bool) {
	{
		for i := 0; i < n; i += 4 {
			ra, ia := row(re, i), row(im, i)
			rb, ib := row(re, i+1), row(im, i+1)
			rc, ic := row(re, i+2), row(im, i+2)
			rd, id := row(re, i+3), row(im, i+3)
			if inverse {
				for s := 0; s < lw; s++ {
					ar, ai := ra[s], ia[s]
					br, bi := rb[s], ib[s]
					cr, ci := rc[s], ic[s]
					dr, di := rd[s], id[s]
					abr, abi := ar+br, ai+bi
					sbr, sbi := ar-br, ai-bi
					cdr, cdi := cr+dr, ci+di
					sdr, sdi := cr-dr, ci-di
					rotr, roti := -sdi, sdr
					ra[s], ia[s] = abr+cdr, abi+cdi
					rc[s], ic[s] = abr-cdr, abi-cdi
					rb[s], ib[s] = sbr+rotr, sbi+roti
					rd[s], id[s] = sbr-rotr, sbi-roti
				}
			} else {
				for s := 0; s < lw; s++ {
					ar, ai := ra[s], ia[s]
					br, bi := rb[s], ib[s]
					cr, ci := rc[s], ic[s]
					dr, di := rd[s], id[s]
					abr, abi := ar+br, ai+bi
					sbr, sbi := ar-br, ai-bi
					cdr, cdi := cr+dr, ci+di
					sdr, sdi := cr-dr, ci-di
					rotr, roti := sdi, -sdr
					ra[s], ia[s] = abr+cdr, abi+cdi
					rc[s], ic[s] = abr-cdr, abi-cdi
					rb[s], ib[s] = sbr+rotr, sbi+roti
					rd[s], id[s] = sbr-rotr, sbi-roti
				}
			}
		}
	}
}

// fusedPairGeneric is the portable fused radix-4-style stage pair; the
// amd64 dispatch target is a packed SSE2 or AVX-512F kernel with the
// identical per-lane float sequence.
func fusedPairGeneric(re, im []float64, tw []complex128, n, size int) {
	{
		half := size >> 1
		size2 := size << 1
		stepA := n / size
		stepB := stepA >> 1
		twB0 := tw[half*stepB]
		twB0r, twB0i := real(twB0), imag(twB0)
		for start := 0; start < n; start += size2 {
			// k = 0: stage-A and first stage-B twiddles are 1.
			r0, i0 := row(re, start), row(im, start)
			rh, ih := row(re, start+half), row(im, start+half)
			rs, is := row(re, start+size), row(im, start+size)
			rq, iq := row(re, start+size+half), row(im, start+size+half)
			for s := 0; s < lw; s++ {
				ar, ai := r0[s], i0[s]
				br, bi := rh[s], ih[s]
				cr, ci := rs[s], is[s]
				dr, di := rq[s], iq[s]
				a1r, a1i := ar+br, ai+bi
				b1r, b1i := ar-br, ai-bi
				c1r, c1i := cr+dr, ci+di
				d1r, d1i := cr-dr, ci-di
				r0[s], i0[s] = a1r+c1r, a1i+c1i
				rs[s], is[s] = a1r-c1r, a1i-c1i
				tBr := d1r*twB0r - d1i*twB0i
				tBi := d1r*twB0i + d1i*twB0r
				rh[s], ih[s] = b1r+tBr, b1i+tBi
				rq[s], iq[s] = b1r-tBr, b1i-tBi
			}
			for k := 1; k < half; k++ {
				wA := tw[k*stepA]
				wB1 := tw[k*stepB]
				wB2 := tw[(k+half)*stepB]
				wAr, wAi := real(wA), imag(wA)
				wB1r, wB1i := real(wB1), imag(wB1)
				wB2r, wB2i := real(wB2), imag(wB2)
				rka, ika := row(re, start+k), row(im, start+k)
				rkb, ikb := row(re, start+k+half), row(im, start+k+half)
				rkc, ikc := row(re, start+size+k), row(im, start+size+k)
				rkd, ikd := row(re, start+size+k+half), row(im, start+size+k+half)
				for s := 0; s < lw; s++ {
					ar, ai := rka[s], ika[s]
					br, bi := rkb[s], ikb[s]
					cr, ci := rkc[s], ikc[s]
					dr, di := rkd[s], ikd[s]
					tAr := br*wAr - bi*wAi
					tAi := br*wAi + bi*wAr
					a1r, a1i := ar+tAr, ai+tAi
					b1r, b1i := ar-tAr, ai-tAi
					tA2r := dr*wAr - di*wAi
					tA2i := dr*wAi + di*wAr
					c1r, c1i := cr+tA2r, ci+tA2i
					d1r, d1i := cr-tA2r, ci-tA2i
					tB1r := c1r*wB1r - c1i*wB1i
					tB1i := c1r*wB1i + c1i*wB1r
					rka[s], ika[s] = a1r+tB1r, a1i+tB1i
					rkc[s], ikc[s] = a1r-tB1r, a1i-tB1i
					tB2r := d1r*wB2r - d1i*wB2i
					tB2i := d1r*wB2i + d1i*wB2r
					rkb[s], ikb[s] = b1r+tB2r, b1i+tB2i
					rkd[s], ikd[s] = b1r-tB2r, b1i-tB2i
				}
			}
		}
	}
}

// final2Generic is the portable final radix-2 stage (runs only when log2 n
// is odd); the amd64 dispatch target is a packed SSE2 kernel with the
// identical per-lane float sequence.
func final2Generic(re, im []float64, tw []complex128, n int) {
	{
		half := n >> 1
		r0, i0 := row(re, 0), row(im, 0)
		rh, ih := row(re, half), row(im, half)
		for s := 0; s < lw; s++ {
			ar, ai := r0[s], i0[s]
			br, bi := rh[s], ih[s]
			r0[s], i0[s] = ar+br, ai+bi
			rh[s], ih[s] = ar-br, ai-bi
		}
		for k := 1; k < half; k++ {
			twk := tw[k]
			wr, wi := real(twk), imag(twk)
			rl, il := row(re, k), row(im, k)
			rk, ik := row(re, k+half), row(im, k+half)
			for s := 0; s < lw; s++ {
				ar, ai := rl[s], il[s]
				hr, hi := rk[s], ik[s]
				br := hr*wr - hi*wi
				bi := hr*wi + hi*wr
				rl[s], il[s] = ar+br, ai+bi
				rk[s], ik[s] = ar-br, ai-bi
			}
		}
	}
}

// lockstepRfft fills bin-major split planes sre/sim ((hm+1)*lw entries)
// with the half spectra of up to lw real signals (each length <= m; tails
// are zero-padded; nil and missing lanes transform zeros), running
// RealPlan.rfft's exact per-lane float sequence: pack (packLanes), one
// lockstep inner transform, and the split-float twiddle recombination.
func (rp *RealPlan) lockstepRfft(sre, sim []float64, signals [][]float64) {
	hm := rp.hm
	packLanes(sre, sim, signals[:min(len(signals), lw)], hm)
	rp.inner.lockstepTransform(sre[:hm*lw], sim[:hm*lw], false)
	rfftRecomb(sre, sim, rp.w, hm)
}

// packGeneric is the portable forward pack of lockstepRfft from bin row
// j0 on (rows [0, j0) are packed already, and every signal fills them):
// bin j of lane s receives samples 2j and 2j+1 of signals[s] (an odd
// length's last sample pairs with 0), and every other entry of rows
// [j0, hm) is zero, lanes past len(signals) included. The rows past every
// lane's samples are cleared as whole rows.
func packGeneric(sre, sim []float64, signals [][]float64, hm, j0 int) {
	end := j0 // rows [j0, end) hold some lane's samples
	for s, x := range signals {
		j := j0
		for ; j < len(x)/2; j++ {
			sre[j*lw+s] = x[2*j]
			sim[j*lw+s] = x[2*j+1]
		}
		if len(x)%2 == 1 {
			sre[j*lw+s] = x[len(x)-1]
			sim[j*lw+s] = 0
		}
		end = max(end, (len(x)+1)/2)
	}
	for s := 0; s < lw; s++ {
		j := j0
		if s < len(signals) {
			j = max(j, (len(signals[s])+1)/2)
		}
		for ; j < end; j++ {
			sre[j*lw+s] = 0
			sim[j*lw+s] = 0
		}
	}
	clear(sre[end*lw : hm*lw])
	clear(sim[end*lw : hm*lw])
}

// unpackGeneric is the portable copy of bin rows [k0, bins) of lanes
// [0, len(re)) out of the bin-major planes: re[s][k] = sre[k*lw+s] and
// im[s][k] = sim[k*lw+s].
func unpackGeneric(re, im [][]float64, sre, sim []float64, bins, k0 int) {
	for s := range re {
		r, i := re[s][:bins], im[s][:bins]
		for k := k0; k < bins; k++ {
			r[k] = sre[k*lw+s]
			i[k] = sim[k*lw+s]
		}
	}
}

// rfftRecombGeneric is the portable post-transform recombination of the
// forward real transform (RealPlan.rfft's exact float sequence per lane).
func rfftRecombGeneric(sre, sim []float64, w []complex128, hm int) {
	r0, i0 := row(sre, 0), row(sim, 0)
	rH, iH := row(sre, hm), row(sim, hm)
	for s := 0; s < lw; s++ {
		z0r, z0i := r0[s], i0[s]
		rH[s], iH[s] = z0r-z0i, 0
		r0[s], i0[s] = z0r+z0i, 0
	}
	for k := 1; 2*k < hm; k++ {
		wk := w[k]
		wr, wi := real(wk), imag(wk)
		rk, ik := row(sre, k), row(sim, k)
		rc, ic := row(sre, hm-k), row(sim, hm-k)
		for s := 0; s < lw; s++ {
			zkr, zki := rk[s], ik[s]
			zcr, zci := rc[s], ic[s]
			er := (zkr + zcr) / 2
			ei := (zki - zci) / 2
			or := (zki + zci) / 2
			oi := (zcr - zkr) / 2
			wor := or*wr - oi*wi
			woi := or*wi + oi*wr
			rk[s], ik[s] = er+wor, ei+woi
			rc[s], ic[s] = er-wor, woi-ei
		}
	}
	if hm >= 2 {
		imid := row(sim, hm/2)
		for s := 0; s < lw; s++ {
			imid[s] = -imid[s]
		}
	}
}

// irfftRecombGeneric is the portable pre-transform recombination of the
// inverse real transform (RealPlan.irfft's exact float sequence per lane).
func irfftRecombGeneric(sre, sim []float64, w []complex128, hm int) {
	r0, i0 := row(sre, 0), row(sim, 0)
	rH, iH := row(sre, hm), row(sim, hm)
	for s := 0; s < lw; s++ {
		p0r, p0i := r0[s], i0[s]
		phr, phi := rH[s], iH[s]
		er := (p0r + phr) / 2
		ei := (p0i - phi) / 2
		dr := (p0r - phr) / 2
		di := (p0i + phi) / 2
		r0[s], i0[s] = er-di, ei+dr
	}
	for k := 1; 2*k < hm; k++ {
		wk := w[k]
		wr, wi := real(wk), imag(wk)
		rk, ik := row(sre, k), row(sim, k)
		rc, ic := row(sre, hm-k), row(sim, hm-k)
		for s := 0; s < lw; s++ {
			pkr, pki := rk[s], ik[s]
			pcr, pci := rc[s], ic[s]
			er := (pkr + pcr) / 2
			ei := (pki - pci) / 2
			dr := (pkr - pcr) / 2
			di := (pki + pci) / 2
			or := dr*wr + di*wi
			oi := di*wr - dr*wi
			rk[s], ik[s] = er-oi, ei+or
			rc[s], ic[s] = er+oi, or-ei
		}
	}
	if hm >= 2 {
		imid := row(sim, hm/2)
		for s := 0; s < lw; s++ {
			imid[s] = -imid[s]
		}
	}
}

// TransformSlotsSoA computes the forward half-spectrum of every non-nil
// signals[i] into arena slot i, running the butterfly schedule once per
// lockstep group instead of once per slot. Bit-identical per slot to
// TransformSignalSoA.
func (cp *ConvPlan) TransformSlotsSoA(a *SpectrumArena, signals [][]float64) error {
	if a.bins != cp.SpectrumLen() {
		return fmt.Errorf("fourier: arena bins %d, plan needs %d", a.bins, cp.SpectrumLen())
	}
	for i, signal := range signals {
		if signal == nil {
			continue
		}
		if len(signal) == 0 {
			return fmt.Errorf("fourier: conv plan signal %d is empty", i)
		}
		if len(signal) > cp.maxSig {
			return fmt.Errorf("fourier: signal %d length %d exceeds conv plan max %d", i, len(signal), cp.maxSig)
		}
	}
	if cp.m == 1 {
		for i, signal := range signals {
			if signal == nil {
				continue
			}
			re, im := a.Slot(i)
			re[0], im[0] = signal[0], 0
		}
		return nil
	}
	rp := cp.rp
	bins := rp.hm + 1
	var lanes, re, im [lw][]float64
	nl := 0
	flush := func() {
		w := nl
		nl = 0
		if w == 0 {
			return
		}
		sre := getLane(bins * lw)
		sim := getLane(bins * lw)
		rp.lockstepRfft(sre, sim, lanes[:w])
		unpackLanes(re[:w], im[:w], sre, sim, bins)
		putLane(sre)
		putLane(sim)
	}
	for i, signal := range signals {
		if signal == nil {
			continue
		}
		lanes[nl] = signal
		re[nl], im[nl] = a.Slot(i)
		nl++
		if nl == lw {
			flush()
		}
	}
	flush()
	return nil
}

// Window selects the part of a lane's convolution output y that the lane
// accumulates: Acc[t*AccStride+c] += y[Off+t*SrcStride+c] for t < Rows and
// c < Width. A row-tiled shot, for example, reads Rows output rows of Width
// valid columns, SrcStride apart in y and AccStride apart in the
// accumulator, and never touches the halo between them.
type Window struct {
	Off, Rows, Width     int
	SrcStride, AccStride int
	// First makes the window the first writer of its entries: each stores
	// 0 + y instead of adding y, which is bit for bit what adding y into a
	// cleared (+0) entry gives (+0 + -0 is +0), so the accumulator needs no
	// clearing beforehand.
	First bool
}

// check reports whether the window reads inside an outLen-sample output and
// writes inside an accLen-entry accumulator.
func (w Window) check(outLen, accLen int) error {
	if w.Off < 0 || w.Rows < 0 || w.Width < 0 || w.SrcStride < 0 || w.AccStride < 0 {
		return fmt.Errorf("window %+v has a negative field", w)
	}
	if w.Rows == 0 || w.Width == 0 {
		return nil
	}
	if end := w.Off + (w.Rows-1)*w.SrcStride + w.Width; end > outLen {
		return fmt.Errorf("window reads up to sample %d of %d", end, outLen)
	}
	if end := (w.Rows-1)*w.AccStride + w.Width; end > accLen {
		return fmt.Errorf("window writes up to entry %d of a %d-entry accumulator", end, accLen)
	}
	return nil
}

// ConvLane names one lane of a lockstep batched convolution: the spectra
// of one accumulation group's channels, the kernel plan whose spectrum
// multiplies each, and the accumulator window that receives the samples of
// the one inverse transform of their sum.
type ConvLane struct {
	// Plans supply the kernel spectra, one per channel of the lane's group.
	// All plans of one call must share transform geometry
	// (SharesTransform), and all lanes of one call carry the same number
	// of channels.
	Plans []*ConvPlan
	// SpecRe and SpecIm hold the channels' split spectrum planes back to
	// back, SpectrumLen entries each: channel c starts at c*SpectrumLen,
	// e.g. consecutive slots from SpectrumArena.SlotRange.
	SpecRe, SpecIm []float64
	// Acc accumulates the Window of the OutLen(sigLen) convolution samples.
	Acc []float64
	Window
}

// ConvolveLanesSoA completes many independent channel-group convolutions
// in lockstep groups of up to LockstepWidth: each lane multiplies every
// channel spectrum by its plan's kernel spectrum and sums the products in
// the frequency domain (the first channel stores, later channels add, in
// channel order, with no fused multiply-add), inverse-transforms the sum
// once, and adds its window of the result into its Acc. Lanes may mix
// kernels and slots freely (e.g. every (kernel, sample) pair of one shot)
// as long as all plans share transform geometry. sigLen is the original
// signal length common to all lanes. Lanes add in lane order, and each
// window sample is bit-identical to the same sample of ConvolveSumInto on
// the lane's signals; a one-channel lane is ConvolveSoAInto on its slot.
func ConvolveLanesSoA(sigLen int, lanes []ConvLane) error {
	if len(lanes) == 0 {
		return nil
	}
	g := len(lanes[0].Plans)
	if g == 0 || lanes[0].Plans[0] == nil {
		return fmt.Errorf("fourier: conv lane 0 has no plan")
	}
	ref := lanes[0].Plans[0]
	if sigLen < 1 || sigLen > ref.maxSig {
		return fmt.Errorf("fourier: signal length %d out of plan range [1,%d]", sigLen, ref.maxSig)
	}
	bins := ref.SpectrumLen()
	for i := range lanes {
		l := &lanes[i]
		if len(l.Plans) != g {
			return fmt.Errorf("fourier: conv lane %d carries %d channels, lane 0 %d", i, len(l.Plans), g)
		}
		for c, cp := range l.Plans {
			if !ref.SharesTransform(cp) {
				return fmt.Errorf("fourier: conv lane %d channel %d does not share transform geometry", i, c)
			}
		}
		if len(l.SpecRe) != g*bins || len(l.SpecIm) != g*bins {
			return fmt.Errorf("fourier: conv lane %d spectrum planes %d/%d, %d channels need %d bins each", i, len(l.SpecRe), len(l.SpecIm), g, bins)
		}
		if err := l.Window.check(ref.OutLen(sigLen), len(l.Acc)); err != nil {
			return fmt.Errorf("fourier: conv lane %d: %w", i, err)
		}
	}
	if ref.m == 1 {
		// The output is the single sample y[0], so a checked non-empty
		// window has Width 1 and reads y[0] on every row.
		for i := range lanes {
			l := &lanes[i]
			if l.Width == 0 {
				continue
			}
			y0 := l.SpecRe[0] * l.Plans[0].k0
			for c := 1; c < g; c++ {
				y0 += l.SpecRe[c] * l.Plans[c].k0
			}
			for t := 0; t < l.Rows; t++ {
				if l.First {
					l.Acc[t*l.AccStride] = 0 + y0
				} else {
					l.Acc[t*l.AccStride] += y0
				}
			}
		}
		return nil
	}
	for len(lanes) > 0 {
		w := len(lanes)
		if w > lw {
			w = lw
		}
		convolveLanesGroup(ref.rp, g, lanes[:w])
		lanes = lanes[w:]
	}
	return nil
}

// convolveLanesGroup runs one lockstep group of g-channel lanes: the
// kernel-spectrum multiply gathers each lane's channel spectra straight
// into the bin-major work planes, channel 0 storing and later channels
// adding (fusing what the scalar path does as sum[i] += spec[i]*kspec[i]),
// one lockstep inverse real transform runs without its normalization
// pass, and each lane's window reads straight from the planes.
func convolveLanesGroup(rp *RealPlan, g int, lanes []ConvLane) {
	w := len(lanes)
	hm := rp.hm
	bins := hm + 1
	sre, sim := workPlanes(bins)
	if w == lw {
		// Full-width fast path: the lanes stream their spectra and kernel
		// spectra straight into the bin-major work planes.
		for c := 0; c < g; c++ {
			gatherMulGroup(sre, sim, bins, lanes, c)
		}
	} else {
		for s := 0; s < w; s++ {
			for c := 0; c < g; c++ {
				ar, ai, kspec := lanes[s].channelPlanes(c, bins)
				for k := 0; k < bins; k++ {
					kv := kspec[k]
					kr, ki := real(kv), imag(kv)
					xr, xi := ar[k], ai[k]
					pr, pi := xr*kr-xi*ki, xr*ki+xi*kr
					if c > 0 {
						pr += sre[k*lw+s]
						pi += sim[k*lw+s]
					}
					sre[k*lw+s], sim[k*lw+s] = pr, pi
				}
			}
		}
		zeroLaneTail(sre, bins, w)
		zeroLaneTail(sim, bins, w)
	}
	c := rp.inverseUnnormalized(sre, sim)
	var accs [lw][]float64
	shared := true
	for s := range lanes {
		accs[s] = lanes[s].Acc
		shared = shared && lanes[s].Window == lanes[0].Window
	}
	if shared {
		addWindows(&accs, &lanes[0].Window, sre, sim, c)
	} else {
		for s := range lanes {
			addWindow(lanes[s].Acc, &lanes[s].Window, sre, sim, s, c)
		}
	}
	putLane(sre)
	putLane(sim)
}

// workPlanes draws the bin-major work planes of one lockstep inverse over
// bins rows, each followed by lw-1 cleared rows: the last 8-row block of
// addWindows' AVX-512F kernel may read that far past the window.
func workPlanes(bins int) (sre, sim []float64) {
	n := (bins + lw - 1) * lw
	sre, sim = getLane(n), getLane(n)
	clear(sre[bins*lw:])
	clear(sim[bins*lw:])
	return sre, sim
}

// inverseUnnormalized runs the lockstep inverse real transform of the
// summed products in the bin-major work planes sre/sim (bins = hm+1 rows):
// irfftRecomb, then the inner inverse transform without its normalization
// pass. It returns that pass's scale c = 1/hm, which addWindow applies to
// each sample it reads.
func (rp *RealPlan) inverseUnnormalized(sre, sim []float64) (c float64) {
	hm := rp.hm
	irfftRecomb(sre, sim, rp.w, hm)
	rp.inner.lockstepTransform(sre[:hm*lw], sim[:hm*lw], true)
	return 1 / float64(hm)
}

// addWindowsGeneric is the portable window add of every lane: lane s's
// window w goes into accs[s], a nil entry skipping the lane.
func addWindowsGeneric(accs *[lw][]float64, w *Window, re, im []float64, c float64) {
	for s, acc := range accs {
		if acc != nil {
			addWindow(acc, w, re, im, s, c)
		}
	}
}

// addWindow adds lane s's window w of the unnormalized inverse planes
// re/im into acc. Output sample idx is the real (even idx) or imaginary
// (odd idx) part of bin idx/2 after RealPlan.irfft's z *= complex(c, 0);
// each sample is normalized in that multiply's exact two-term form
// (xr*c - xi*0 or xr*0 + xi*c), whose zero terms fix the sign of a zero
// result. A first-writer window clears each row before adding into it.
func addWindow(dst []float64, w *Window, re, im []float64, s int, c float64) {
	if w.Width == 0 {
		return // an empty window's strides are unchecked
	}
	for t := 0; t < w.Rows; t++ {
		acc := dst[t*w.AccStride:][:w.Width]
		if w.First {
			clear(acc)
		}
		idx := w.Off + t*w.SrcStride
		k := idx>>1*lw + s // plane entry of bin idx/2, lane s
		i := 0
		if idx&1 == 1 {
			acc[0] += re[k]*0 + im[k]*c
			i, k = 1, k+lw
		}
		for ; i+1 < len(acc); i, k = i+2, k+lw {
			xr, xi := re[k], im[k]
			acc[i] += xr*c - xi*0
			acc[i+1] += xr*0 + xi*c
		}
		if i < len(acc) {
			acc[i] += re[k]*c - im[k]*0
		}
	}
}

// channelPlanes returns channel c's spectrum planes and kernel spectrum of
// lane l, whose channel spectra are bins long.
func (l *ConvLane) channelPlanes(c, bins int) (xr, xi []float64, kspec []complex128) {
	return l.SpecRe[c*bins : (c+1)*bins], l.SpecIm[c*bins : (c+1)*bins], l.Plans[c].kspec
}

// gatherMulGroupGeneric is the portable full-group kernel-spectrum
// multiply of channel c: four lane-pair multiplies fill all lw lanes of
// dre/dim, storing for channel 0 and adding for later channels.
func gatherMulGroupGeneric(dre, dim []float64, bins int, lanes []ConvLane, c int) {
	for p := 0; p < lw; p += 2 {
		xr0, xi0, k0 := lanes[p].channelPlanes(c, bins)
		xr1, xi1, k1 := lanes[p+1].channelPlanes(c, bins)
		gatherMulPairGeneric(dre[p:], dim[p:], bins, xr0, xi0, k0, xr1, xi1, k1, c > 0)
	}
}

// gatherMulPairGeneric is the portable kernel-spectrum multiply for two
// lanes: lane 0 writes dre/dim[k*lw], lane 1 writes dre/dim[k*lw+1], each
// running the exact complex multiply of the scalar path and, when acc is
// set, adding the product to the entry instead of storing it.
func gatherMulPairGeneric(dre, dim []float64, bins int, xr0, xi0 []float64, k0 []complex128, xr1, xi1 []float64, k1 []complex128, acc bool) {
	for k := 0; k < bins; k++ {
		kv := k0[k]
		kr, ki := real(kv), imag(kv)
		xr, xi := xr0[k], xi0[k]
		pr0, pi0 := xr*kr-xi*ki, xr*ki+xi*kr
		kv = k1[k]
		kr, ki = real(kv), imag(kv)
		xr, xi = xr1[k], xi1[k]
		pr1, pi1 := xr*kr-xi*ki, xr*ki+xi*kr
		if acc {
			pr0 += dre[k*lw]
			pi0 += dim[k*lw]
			pr1 += dre[k*lw+1]
			pi1 += dim[k*lw+1]
		}
		dre[k*lw], dim[k*lw] = pr0, pi0
		dre[k*lw+1], dim[k*lw+1] = pr1, pi1
	}
}
