//go:build amd64

package fourier

import "photofourier/internal/cpu"

// Two families of packed lockstep kernels, picked once at package init:
//
//   - AVX-512F (lockstep_avx512_amd64.s): one 64-byte bin row of eight
//     lanes per ZMM instruction, for bitrevSwap, fusedFirst, fusedPair,
//     irfftRecomb and the full-group spectrum×kernel multiply. The
//     multiply reads every lane through its own pointers, so groups mixing
//     kernels take it too: it computes 8-bin blocks lane by lane and
//     transposes them into bin rows, and gathers (VGATHERQPD) the bins
//     past the last whole block. Its accumulate form adds the rows to the
//     planes instead of storing them, one channel of a lane group per call.
//     The full-chunk multiply broadcasts each kernel bin over its bin row
//     (VBROADCASTSD) and sums up to chunkBatch channels of an 8-row block
//     in registers before one store. The pass boundaries move data between
//     per-lane runs and bin rows with the same 8x8 register transpose: the
//     forward pack (packAVX512), the copy of lanes out to arena slots
//     (unpackAVX512) and the window add (addWindowAVX512), which
//     normalizes 8-row blocks of the inverse and adds or, for a
//     first-writer window, stores their samples into the lanes'
//     accumulators;
//   - SSE2 (lockstep_amd64.s): the same rows in four 2-lane XMM chunks
//     (the full-chunk multiply sums one bin row's channels in registers).
//     SSE2 is the amd64 baseline (GOAMD64=v1), so it is the fallback on
//     every host without AVX-512F, and final2 and rfftRecomb keep their
//     single SSE2 body on every host (final2 never runs at the conv paths'
//     m = 512, and the forward transform is a small share of the time).
//     SSE2 hosts run the Go loops of the pack, the copy-out and the window
//     add.
//
// cpu.HasAVX512F picks the family (the module's one CPUID probe, which
// internal/quant's converter kernels read too). Nothing overrides that
// choice.
//
// Both families are bit-identical to the portable Go loops (the *Generic
// functions): each MULPD/ADDPD/SUBPD and each EVEX VMULPD/VADDPD/VSUBPD
// applies the same correctly-rounded IEEE-754 operation to every 64-bit
// element, so each lane runs the exact float sequence of the Go loop and
// only the order between lanes changes. The kernels spell out separate
// multiplies and adds (no FMA contraction; the accumulating multiply adds
// each finished product to the plane, one channel per call, in channel
// order, and the full-chunk multiply adds it to the running sum in its
// registers, also as product + sum), and the recombination kernels
// replace the scalar `/2` with a multiply by 0.5: both are
// correctly-rounded scalings by 2^-1, bitwise identical for every input
// including subnormals.

// useAVX512 is set once, at package init, and never written again.
var useAVX512 = cpu.HasAVX512F()

// LockstepKernels names the kernel family the lockstep transforms run on:
// "avx512f", "sse2" or, on non-amd64 builds, "go".
func LockstepKernels() string {
	if useAVX512 {
		return "avx512f"
	}
	return "sse2"
}

func fusedFirst(re, im []float64, n int, inverse bool) {
	if useAVX512 {
		fusedFirstAVX512(re, im, n, inverse)
	} else {
		fusedFirstSSE2(re, im, n, inverse)
	}
}

func fusedPair(re, im []float64, tw []complex128, n, size int) {
	if useAVX512 {
		fusedPairAVX512(re, im, tw, n, size)
	} else {
		fusedPairSSE2(re, im, tw, n, size)
	}
}

func bitrevSwap(re, im []float64, rev []int) {
	if useAVX512 {
		bitrevSwapAVX512(re, im, rev)
	} else {
		bitrevSwapSSE2(re, im, rev)
	}
}

func irfftRecomb(sre, sim []float64, w []complex128, hm int) {
	if useAVX512 {
		irfftRecombAVX512(sre, sim, w, hm)
	} else {
		irfftRecombSSE2(sre, sim, w, hm)
	}
}

// gatherMulGroup fills all lw lanes of the bin-major planes dre/dim with
// the spectrum×kernel products of channel c of a full group of lanes:
// channel 0 stores them, later channels add them to the planes.
func gatherMulGroup(dre, dim []float64, bins int, lanes []ConvLane, c int) {
	if useAVX512 {
		gatherMulGroupAVX512(dre, dim, bins, lanes, c)
	} else {
		gatherMulGroupSSE2(dre, dim, bins, lanes, c)
	}
}

// gatherMulGroupSSE2 runs the group multiply as four lane-pair kernels.
func gatherMulGroupSSE2(dre, dim []float64, bins int, lanes []ConvLane, c int) {
	for p := 0; p < lw; p += 2 {
		xr0, xi0, k0 := lanes[p].channelPlanes(c, bins)
		xr1, xi1, k1 := lanes[p+1].channelPlanes(c, bins)
		gatherMulPair(dre[p:], dim[p:], bins, xr0, xi0, k0, xr1, xi1, k1, c > 0)
	}
}

// gatherMulGroupAVX512 hands channel c of the lanes' spectrum and kernel
// planes to gatherMulAVX512 as stack arrays of per-lane pointers (bins >=
// 1, so element 0 exists).
func gatherMulGroupAVX512(dre, dim []float64, bins int, lanes []ConvLane, c int) {
	var xr, xi [lw]*float64
	var k [lw]*complex128
	for s := range xr {
		l := &lanes[s]
		xr[s], xi[s], k[s] = &l.SpecRe[c*bins], &l.SpecIm[c*bins], &l.Plans[c].kspec[0]
	}
	gatherMulAVX512(dre, dim, bins, &xr, &xi, &k, c > 0)
}

// chunkBatch is the most channels one packed chunk-multiply call sums in
// registers: larger groups run in batches of it, each later batch adding
// onto the planes the earlier one stored (the running sum round-trips
// through memory unchanged).
const chunkBatch = 16

// chunkMul fills the bin-major planes dre/dim with the full-chunk
// multiply of chunkMulGeneric on the CPU's kernel family.
func chunkMul(dre, dim []float64, bins int, xr, xi []float64, plans []*ConvPlan) {
	chunkMulPacked(useAVX512, dre, dim, bins, xr, xi, plans)
}

// chunkMulPacked runs the full-chunk multiply on the AVX-512F kernel (avx)
// or its SSE2 twin, handing each batch of up to chunkBatch channels'
// kernel spectra over as a stack table of pointers.
func chunkMulPacked(avx bool, dre, dim []float64, bins int, xr, xi []float64, plans []*ConvPlan) {
	var k [chunkBatch]*complex128
	stride := bins * lw
	for c0 := 0; c0 < len(plans); c0 += chunkBatch {
		n := min(chunkBatch, len(plans)-c0)
		for c := range n {
			k[c] = &plans[c0+c].kspec[0]
		}
		if avx {
			chunkMulAVX512(dre, dim, bins, xr[c0*stride:], xi[c0*stride:], k[:n], c0 > 0)
		} else {
			chunkMulSSE2(dre, dim, bins, xr[c0*stride:], xi[c0*stride:], k[:n], c0 > 0)
		}
	}
}

// packLanes writes the forward pack of packGeneric. On AVX-512F the
// bins every lane fills are packed in 8-bin blocks by packAVX512 and the
// Go loop finishes the rows from the last whole block on; SSE2 hosts run
// the Go loop.
func packLanes(sre, sim []float64, signals [][]float64, hm int) {
	if !useAVX512 {
		packGeneric(sre, sim, signals, hm, 0)
		return
	}
	packLanesAVX512(sre, sim, signals, hm)
}

// packLanesAVX512 runs packAVX512 over the whole 8-bin blocks every lane
// fills (a nil lane fills none, and neither do no lanes) and packGeneric
// from there on.
func packLanesAVX512(sre, sim []float64, signals [][]float64, hm int) {
	blocks := 0
	if len(signals) > 0 {
		blocks = hm / lw
	}
	var x [lw]*float64
	for s, sig := range signals {
		blocks = min(blocks, len(sig)/(2*lw))
		if blocks > 0 {
			x[s] = &sig[0]
		}
	}
	if blocks > 0 {
		for s := len(signals); s < lw; s++ {
			x[s] = x[0] // dead lanes: masked off, never read
		}
		packAVX512(sre, sim, &x, len(signals), blocks)
	}
	packGeneric(sre, sim, signals, hm, blocks*lw)
}

// unpackLanes copies lanes [0, len(re)) of the bin-major planes out to
// re[s]/im[s] as unpackGeneric does; AVX-512F transposes 8-row blocks
// (unpackAVX512) and the Go loop copies the rows past the last one.
func unpackLanes(re, im [][]float64, sre, sim []float64, bins int) {
	if !useAVX512 {
		unpackGeneric(re, im, sre, sim, bins, 0)
		return
	}
	unpackLanesAVX512(re, im, sre, sim, bins)
}

func unpackLanesAVX512(re, im [][]float64, sre, sim []float64, bins int) {
	blocks := 0
	if len(re) > 0 {
		blocks = bins / lw
	}
	if blocks > 0 {
		var pr, pi [lw]*float64
		for s := range pr {
			l := min(s, len(re)-1) // dead lanes: masked off
			pr[s], pi[s] = &re[l][0], &im[l][0]
		}
		unpackAVX512(sre, sim, &pr, &pi, len(re), blocks)
	}
	unpackGeneric(re, im, sre, sim, bins, blocks*lw)
}

// addWindows adds window w of lanes [0, lw) of the unnormalized inverse
// planes into accs[s] (nil skips the lane), as addWindow per lane. On
// AVX-512F every contiguous run of the window (the whole window when its
// rows abut in both the output and the accumulator, else each row) is one
// addWindowAVX512 call over all eight lanes, a nil lane writing into a
// cleared scratch sink. The planes must hold lw-1 rows past the spectrum
// (workPlanes).
func addWindows(accs *[lw][]float64, w *Window, re, im []float64, c float64) {
	if !useAVX512 {
		addWindowsGeneric(accs, w, re, im, c)
		return
	}
	addWindowsAVX512(accs, w, re, im, c)
}

func addWindowsAVX512(accs *[lw][]float64, w *Window, re, im []float64, c float64) {
	if w.Rows == 0 || w.Width == 0 {
		return // an empty window's strides are unchecked
	}
	rows, n := w.Rows, w.Width
	if w.SrcStride == n && w.AccStride == n {
		rows, n = 1, w.Rows*w.Width
	}
	var base [lw][]float64
	var sink []float64
	for s, acc := range accs {
		if acc == nil {
			if sink == nil {
				sink = getLane((w.Rows-1)*w.AccStride + w.Width)
				clear(sink)
			}
			acc = sink
		}
		base[s] = acc
	}
	var p [lw]*float64
	for t := 0; t < rows; t++ {
		for s := range p {
			p[s] = &base[s][t*w.AccStride]
		}
		addWindowAVX512(re, im, w.Off+t*w.SrcStride, n, c, &p, w.First)
	}
	if sink != nil {
		putLane(sink)
	}
}

// SSE2 family (lockstep_amd64.s).

//go:noescape
func fusedFirstSSE2(re, im []float64, n int, inverse bool)

//go:noescape
func fusedPairSSE2(re, im []float64, tw []complex128, n, size int)

//go:noescape
func final2(re, im []float64, tw []complex128, n int)

//go:noescape
func bitrevSwapSSE2(re, im []float64, rev []int)

//go:noescape
func rfftRecomb(sre, sim []float64, w []complex128, hm int)

//go:noescape
func irfftRecombSSE2(sre, sim []float64, w []complex128, hm int)

//go:noescape
func chunkMulSSE2(dre, dim []float64, bins int, xr, xi []float64, k []*complex128, acc bool)

//go:noescape
func gatherMulPair(dre, dim []float64, bins int, xr0, xi0 []float64, k0 []complex128, xr1, xi1 []float64, k1 []complex128, acc bool)

// AVX-512F family (lockstep_avx512_amd64.s).

//go:noescape
func fusedFirstAVX512(re, im []float64, n int, inverse bool)

//go:noescape
func fusedPairAVX512(re, im []float64, tw []complex128, n, size int)

//go:noescape
func bitrevSwapAVX512(re, im []float64, rev []int)

//go:noescape
func irfftRecombAVX512(sre, sim []float64, w []complex128, hm int)

//go:noescape
func gatherMulAVX512(dre, dim []float64, bins int, xr, xi *[lw]*float64, k *[lw]*complex128, acc bool)

//go:noescape
func chunkMulAVX512(dre, dim []float64, bins int, xr, xi []float64, k []*complex128, acc bool)

//go:noescape
func packAVX512(sre, sim []float64, x *[lw]*float64, w, blocks int)

//go:noescape
func unpackAVX512(sre, sim []float64, re, im *[lw]*float64, w, blocks int)

//go:noescape
func addWindowAVX512(re, im []float64, idx, n int, c float64, acc *[lw]*float64, first bool)
