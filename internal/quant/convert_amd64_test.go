//go:build amd64

package quant

// converterFamilies lists the packed converter families of this build.
func converterFamilies() []converterFamily {
	avx512 := converterFamily{
		name:   "avx512f",
		maxAbs: maxAbsAVX512,
		split:  quantizeSplitAVX512,
		accum:  quantizeAccumAVX512,
	}
	if !useAVX512 {
		avx512.missing = "no AVX-512F, or the OS does not save ZMM state"
	}
	return []converterFamily{avx512}
}
