//go:build amd64

package fourier

// Packed SSE2 lockstep kernels (lockstep_amd64.s). Each MULPD/ADDPD/SUBPD
// applies the same IEEE-754 operation to two lanes at once, so every lane
// still runs the exact float sequence of the portable Go loops (the
// *Generic functions) — results are bit-identical; only between-lane
// ordering changes. The recombination kernels replace the scalar `/2` with
// MULPD by 0.5: both are correctly-rounded scalings by 2^-1, bitwise
// identical for every input including subnormals. SSE2 is part of the
// amd64 baseline (GOAMD64=v1), so no feature detection is needed, and no
// FMA contraction is possible: the kernels spell out separate multiplies
// and adds.

//go:noescape
func fusedFirst(re, im []float64, n int, inverse bool)

//go:noescape
func fusedPair(re, im []float64, tw []complex128, n, size int)

//go:noescape
func final2(re, im []float64, tw []complex128, n int)

//go:noescape
func bitrevSwap(re, im []float64, rev []int)

//go:noescape
func rfftRecomb(sre, sim []float64, w []complex128, hm int)

//go:noescape
func irfftRecomb(sre, sim []float64, w []complex128, hm int)

//go:noescape
func gatherMulPair(dre, dim []float64, bins int, xr0, xi0 []float64, k0 []complex128, xr1, xi1 []float64, k1 []complex128)
