package quant

import "math"

// The converter loops of the planned conv path: the full-scale search
// that sizes each DAC and ADC (MaxAbs), the DAC's quantize-and-split of
// one activation row into its pseudo-negative parts (QuantizeSplit), and
// the ADC's readout of one charge plane fused with the signed
// accumulation of its codes (QuantizeAccum). On amd64 hosts with
// AVX-512F they run as packed kernels (convert_amd64.s); elsewhere they
// are the Go loops below, which are also the oracle the kernels are
// tested against bit for bit.

// MaxAbs returns the largest magnitude in data, 0 when data is empty.
// NaN elements are skipped.
func MaxAbs(data []float64) float64 { return maxAbs(data) }

// QuantizeSplit quantizes every element of src and splits the result into
// its pseudo-negative parts: pos[i] is Quantize(src[i]) where that is
// positive and neg[i] is its negation where it is negative; the other
// part, and both parts of ±0 and NaN, are +0. It reports which signs
// occurred. It panics if pos or neg is shorter than src.
func (q *Linear) QuantizeSplit(pos, neg, src []float64) (hasPos, hasNeg bool) {
	if len(pos) < len(src) || len(neg) < len(src) {
		panic("quant: QuantizeSplit destination shorter than its source")
	}
	lo, hi := q.bounds()
	return quantizeSplit(pos, neg, src, lo, hi, q.Step())
}

// QuantizeAccum adds sgn*Quantize(src[i]) to out[i] for every i: the ADC
// readout of a charge plane fused with the signed accumulation of its
// codes. It panics if out is shorter than src.
func (q *Linear) QuantizeAccum(out, src []float64, sgn float64) {
	if len(out) < len(src) {
		panic("quant: QuantizeAccum destination shorter than its source")
	}
	lo, hi := q.bounds()
	quantizeAccum(out, src, lo, hi, q.Step(), sgn)
}

func maxAbsGo(data []float64) float64 {
	m := 0.0
	for _, v := range data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// quantizeSplitGo is Quantize with its Step division hoisted out of the
// loop, followed by the sign split.
func quantizeSplitGo(pos, neg, src []float64, lo, hi, step float64) (hasPos, hasNeg bool) {
	pos = pos[:len(src)]
	neg = neg[:len(src)]
	for i, v := range src {
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		v = math.Round(v/step) * step
		var p, ng float64
		if v > 0 {
			p = v
			hasPos = true
		} else if v < 0 {
			ng = -v
			hasNeg = true
		}
		pos[i], neg[i] = p, ng
	}
	return hasPos, hasNeg
}

func quantizeAccumGo(out, src []float64, lo, hi, step, sgn float64) {
	out = out[:len(src)]
	for i, v := range src {
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		out[i] += sgn * (math.Round(v/step) * step)
	}
}
