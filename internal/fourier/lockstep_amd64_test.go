//go:build amd64

package fourier

// packedKernelFamilies lists the amd64 kernel families. final2 and
// rfftRecomb keep their single SSE2 body in both, and SSE2 runs the Go
// loops of the pack, the unpack and the window add, as in production.
func packedKernelFamilies() []kernelFamily {
	sse2 := kernelFamily{
		name:        "sse2",
		bitrevSwap:  bitrevSwapSSE2,
		fusedFirst:  fusedFirstSSE2,
		fusedPair:   fusedPairSSE2,
		final2:      final2,
		rfftRecomb:  rfftRecomb,
		irfftRecomb: irfftRecombSSE2,
		mulGroup:    gatherMulGroupSSE2,
		mulChunk: func(dre, dim []float64, bins int, xr, xi []float64, plans []*ConvPlan) {
			chunkMulPacked(false, dre, dim, bins, xr, xi, plans)
		},
		pack:   packGo,
		unpack: unpackGo,
		window: addWindowsGeneric,
	}
	avx512 := kernelFamily{
		name:        "avx512",
		bitrevSwap:  bitrevSwapAVX512,
		fusedFirst:  fusedFirstAVX512,
		fusedPair:   fusedPairAVX512,
		final2:      final2,
		rfftRecomb:  rfftRecomb,
		irfftRecomb: irfftRecombAVX512,
		mulGroup:    gatherMulGroupAVX512,
		mulChunk: func(dre, dim []float64, bins int, xr, xi []float64, plans []*ConvPlan) {
			chunkMulPacked(true, dre, dim, bins, xr, xi, plans)
		},
		pack:   packLanesAVX512,
		unpack: unpackLanesAVX512,
		window: addWindowsAVX512,
	}
	if !useAVX512 {
		avx512.missing = "no AVX-512F, or the OS does not save ZMM state"
	}
	return []kernelFamily{sse2, avx512}
}
