//go:build amd64

package quant

import "photofourier/internal/cpu"

// The AVX-512F converter kernels (convert_amd64.s) run eight float64
// elements per ZMM instruction and finish a slice's tail in one masked
// pass. Each equals its Go loop bit for bit on every input:
//
//   - the clamps are masked compares with ordered, non-signalling (_OQ)
//     predicates and masked moves, so -0 and NaN pass through them exactly
//     as the Go if chains leave them;
//   - the division is VDIVPD (no reciprocal) and products and sums stay
//     separate VMULPD and VADDPD (no FMA);
//   - math.Round is VRNDSCALEPD $0x0B (truncate) followed by ±1 where the
//     fraction x−trunc(x), which is exact, is ≥ 0.5 or ≤ −0.5: rounding
//     half away from zero, with ±0, ±Inf and NaN unchanged;
//   - the running maximum is VMAXPD with the accumulator as its second
//     operand, which it returns when the new element is NaN, as the Go
//     loop's `v > m` skips NaN; the accumulator holds no NaN and no −0, so
//     the final cross-lane maximum does not depend on lane order;
//   - the sign split is a masked VPXORQ of the sign bit, as Go's -v.
//
// Only AVX512F instructions are used (KMOVW/KORW, VPANDQ/VPXORQ, not the
// DQ forms), plus VZEROUPPER, because that is all cpu.HasAVX512F checks.

// useAVX512 is set once, at package init, and never written again.
var useAVX512 = cpu.HasAVX512F()

// ConverterKernels names the family the converter loops run on: "avx512f"
// or, on hosts without AVX-512F and on non-amd64 builds, "go".
func ConverterKernels() string {
	if useAVX512 {
		return "avx512f"
	}
	return "go"
}

func maxAbs(data []float64) float64 {
	if useAVX512 {
		return maxAbsAVX512(data)
	}
	return maxAbsGo(data)
}

func quantizeSplit(pos, neg, src []float64, lo, hi, step float64) (hasPos, hasNeg bool) {
	if useAVX512 {
		return quantizeSplitAVX512(pos, neg, src, lo, hi, step)
	}
	return quantizeSplitGo(pos, neg, src, lo, hi, step)
}

func quantizeAccum(out, src []float64, lo, hi, step, sgn float64) {
	if useAVX512 {
		quantizeAccumAVX512(out, src, lo, hi, step, sgn)
	} else {
		quantizeAccumGo(out, src, lo, hi, step, sgn)
	}
}

// The kernels read len(src) (len(data)) elements and assume pos, neg and
// out hold as many.

//go:noescape
func maxAbsAVX512(data []float64) float64

//go:noescape
func quantizeSplitAVX512(pos, neg, src []float64, lo, hi, step float64) (hasPos, hasNeg bool)

//go:noescape
func quantizeAccumAVX512(out, src []float64, lo, hi, step, sgn float64)
