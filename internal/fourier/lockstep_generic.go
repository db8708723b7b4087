//go:build !amd64

package fourier

// On non-amd64 builds the lockstep stage kernels are the portable Go
// loops; amd64 swaps in packed SSE2 kernels computing the identical
// per-lane float sequence (see lockstep_amd64.s).

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

func gatherMulPair(dre, dim []float64, bins int, xr0, xi0 []float64, k0 []complex128, xr1, xi1 []float64, k1 []complex128) {
	gatherMulPairGeneric(dre, dim, bins, xr0, xi0, k0, xr1, xi1, k1)
}
