//go:build !amd64

package quant

// ConverterKernels names the family the converter loops run on: "avx512f"
// or, on hosts without AVX-512F and on non-amd64 builds, "go".
func ConverterKernels() string { return "go" }

func maxAbs(data []float64) float64 { return maxAbsGo(data) }

func quantizeSplit(pos, neg, src []float64, lo, hi, step float64) (hasPos, hasNeg bool) {
	return quantizeSplitGo(pos, neg, src, lo, hi, step)
}

func quantizeAccum(out, src []float64, lo, hi, step, sgn float64) {
	quantizeAccumGo(out, src, lo, hi, step, sgn)
}
