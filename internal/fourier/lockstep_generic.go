//go:build !amd64

package fourier

// On non-amd64 builds the lockstep stage kernels are the portable Go
// loops; amd64 swaps in packed SSE2 or AVX-512F kernels computing the
// identical per-lane float sequence (see lockstep_amd64.go).

// LockstepKernels names the kernel family the lockstep transforms run on:
// "avx512f", "sse2" or, on non-amd64 builds, "go".
func LockstepKernels() string { return "go" }

func fusedFirst(re, im []float64, n int, inverse bool) {
	fusedFirstGeneric(re, im, n, inverse)
}

func fusedPair(re, im []float64, tw []complex128, n, size int) {
	fusedPairGeneric(re, im, tw, n, size)
}

func final2(re, im []float64, tw []complex128, n int) {
	final2Generic(re, im, tw, n)
}

func bitrevSwap(re, im []float64, rev []int) {
	bitrevSwapGeneric(re, im, rev)
}

func rfftRecomb(sre, sim []float64, w []complex128, hm int) {
	rfftRecombGeneric(sre, sim, w, hm)
}

func irfftRecomb(sre, sim []float64, w []complex128, hm int) {
	irfftRecombGeneric(sre, sim, w, hm)
}

func gatherMulGroup(dre, dim []float64, bins int, lanes []ConvLane, c int) {
	gatherMulGroupGeneric(dre, dim, bins, lanes, c)
}

func chunkMul(dre, dim []float64, bins int, xr, xi []float64, plans []*ConvPlan) {
	chunkMulGeneric(dre, dim, bins, xr, xi, plans)
}

func packLanes(sre, sim []float64, signals [][]float64, hm int) {
	packGeneric(sre, sim, signals, hm, 0)
}

func unpackLanes(re, im [][]float64, sre, sim []float64, bins int) {
	unpackGeneric(re, im, sre, sim, bins, 0)
}

func addWindows(accs *[lw][]float64, w *Window, re, im []float64, c float64) {
	addWindowsGeneric(accs, w, re, im, c)
}
