package core

import (
	"sync"

	"photofourier/internal/quant"
	"photofourier/internal/tensor"
)

// This file holds the batch-major machinery every planned run shares:
// quantization into zero-padded sign-part planes and the direct path's
// weight-stationary sweep. One ForwardBatchCalls call runs a whole batch
// through the layer with PER-SAMPLE semantics — each sample gets its own
// DAC quantization scale, its own ADC full-scale calibration, and its own
// readout-noise substreams — so the result is bit-identical to looping the
// planned single-sample path over the batch, while the machine work is
// organized batch-major: weights are walked once per output channel (not
// once per sample), every activation plane is zero-padded once so the
// shift-and-add sweep runs as chained full-plane register-tiled passes with
// no boundary clipping, and the whole batch stays resident between stages.
//
// The zero padding is exact, not approximate: a tap reading a padding cell
// contributes c*0 == +0, and adding +0 to a non-negative partial sum is an
// IEEE no-op, so the padded sweep produces the same bits as the
// boundary-clipped sweep that skips those taps. Junk columns between padded
// rows do accumulate garbage; they are excluded when each sample's plane is
// compacted for calibration and readout, and never reach an output.

// padGeom is the padded plane layout of one batch-major direct sweep.
type padGeom struct {
	h, w, k    int
	padT, padL int
	oh, ow     int
	sd         int // padded row stride: w + 2*padL
	srcRows    int // padded source rows: h + 2*padT
	srcPlane   int // srcRows * sd
	dstPlane   int // oh * sd (output rows at source stride; cols [ow, sd) are junk)
	span       int // flattened sweep span: (oh-1)*sd + ow
}

func newPadGeom(h, w, k int, pad tensor.PadMode) padGeom {
	g := padGeom{h: h, w: w, k: k}
	g.oh, g.ow = convOutHW(h, w, k, pad)
	if pad == tensor.Same {
		g.padT, g.padL = tensor.SamePad(k), tensor.SamePad(k)
	}
	g.sd = w + 2*g.padL
	g.srcRows = h + 2*g.padT
	g.srcPlane = g.srcRows * g.sd
	g.dstPlane = g.oh * g.sd
	g.span = (g.oh-1)*g.sd + g.ow
	return g
}

// batchParts holds the sign-split quantized activations of one batch in
// padded layout, with per-sample presence flags (the partPresence rule
// applied per calibration domain). The struct and every slice it owns are
// pooled; callers release() when done.
type batchParts struct {
	pos, neg       []float64 // nil when absent in every sample; alias posBuf/negBuf
	posBuf, negBuf []float64 // n*cin*srcPlane padded planes (owned backing)
	hasPos         []bool
	hasNeg         []bool
}

var batchPartsPool sync.Pool

func (bp *batchParts) release() {
	putFloats(bp.posBuf)
	putFloats(bp.negBuf)
	boolPool.Put(bp.hasPos)
	boolPool.Put(bp.hasNeg)
	*bp = batchParts{}
	batchPartsPool.Put(bp)
}

// quantizeBatchPadded quantizes x into zero-padded sign-part planes. Each
// sample is its own DAC domain (its own MaxAbs quantizer and part presence)
// unless whole is set, which makes the tensor one domain: one quantizer,
// and batch-wide presence, so a sample lacking a part the batch has carries
// zero planes for it, exactly like the unplanned Engine.Conv2D.
func quantizeBatchPadded(x *tensor.Tensor, bits int, g padGeom, whole bool) (*batchParts, error) {
	n, cin, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	bp, _ := batchPartsPool.Get().(*batchParts)
	if bp == nil {
		bp = &batchParts{}
	}
	total := n * cin * g.srcPlane
	// Without padding each domain's cin*h*w values are one run in both
	// layouts, which the DAC converts in one call and writes whole; a
	// padded layout needs its padding zeroed.
	unpadded := g.srcPlane == h*w
	get := getFloatsZeroed
	if unpadded {
		get = getFloats
	}
	posBuf, negBuf := get(total), get(total)
	bp.posBuf, bp.negBuf = posBuf, negBuf
	bp.hasPos, bp.hasNeg = boolPool.Get(n), boolPool.Get(n)
	per, units := 1, n // samples per domain, domains
	if whole {
		per, units = n, 1
	}
	anyPos, anyNeg := false, false
	var ql quant.Linear // stack-resident; one value reused across domains
	for u := 0; u < units; u++ {
		lo, hi := u*per, (u+1)*per
		var q *quant.Linear
		if bits > 0 {
			m := quant.MaxAbs(x.Data[lo*cin*h*w : hi*cin*h*w])
			if m == 0 {
				m = 1
			}
			var err error
			if ql, err = quant.LinearOf(bits, m); err != nil {
				bp.release()
				return nil, err
			}
			q = &ql
		}
		hasPos, hasNeg := false, false
		if unpadded {
			r0, r1 := lo*cin*h*w, hi*cin*h*w
			hasPos, hasNeg = quantizeSplitInto(posBuf[r0:r1], negBuf[r0:r1], x.Data[r0:r1], q)
		} else {
			for p := lo * cin; p < hi*cin; p++ {
				src := x.Data[p*h*w : (p+1)*h*w]
				dstBase := p*g.srcPlane + g.padT*g.sd + g.padL
				for y := 0; y < h; y++ {
					off := dstBase + y*g.sd
					hp, hn := quantizeSplitInto(posBuf[off:off+w], negBuf[off:off+w], src[y*w:(y+1)*w], q)
					hasPos, hasNeg = hasPos || hp, hasNeg || hn
				}
			}
		}
		posPresent, negPresent := partPresence(hasPos, hasNeg)
		for b := lo; b < hi; b++ {
			bp.hasPos[b], bp.hasNeg[b] = posPresent, negPresent
		}
		anyPos, anyNeg = anyPos || posPresent, anyNeg || negPresent
	}
	if anyPos {
		bp.pos = posBuf
	}
	if anyNeg {
		bp.neg = negBuf
	}
	return bp, nil
}

// presentTerms reports which cross terms a run carries: the batch has the
// term's activation part and the layer has weights of its sign.
func (lp *LayerPlan) presentTerms(bp *batchParts) (present [numTerms]bool) {
	x := [2]bool{bp.pos != nil, bp.neg != nil}
	w := [2]bool{lp.wpos != nil, lp.wneg != nil}
	for t := range present {
		present[t] = x[t/2] && w[t%2]
	}
	return present
}

// BatchExact reports whether ForwardBatchCalls reproduces the per-sample
// planned path bit-identically. It is false only when the detector draws
// from a shared sequential noise stream (whose consumption order a
// batch-major execution cannot reproduce); keyed readout-noise substreams
// batch exactly.
func (lp *LayerPlan) BatchExact() bool { return detectorNoiseFree(lp.engine.Detector) }

// ReserveCalls implements nn.BatchLayerPlan: it reserves n consecutive
// engine call indices and returns the count before the reservation, so a
// caller can key per-sample readout substreams exactly as n sequential
// single-sample Conv2D calls would.
func (lp *LayerPlan) ReserveCalls(n uint64) uint64 { return lp.engine.calls.Add(n) - n }

// Calls returns how many Conv2D call indices the engine has consumed so
// far, reserved blocks included. Together with AlignCalls it lets a
// multi-device scheduler keep several same-seed engines on one logical
// call sequence.
func (e *Engine) Calls() uint64 { return e.calls.Load() }

// AlignCalls repositions the engine's call counter so the next consumed
// call index block starts at next: the subsequent Conv2D call observes
// index next+1, and the next ReserveCalls(n) returns next. Readout-noise
// and fault-injection substreams are keyed by (seed, call index), so
// aligning a device's counter to a shared logical frontier before running a
// shard of samples reproduces exactly the substreams a single engine
// serving the whole sequence would have drawn. Callers must serialize
// AlignCalls with the engine work it positions (the device pool holds a
// per-device lock across align+forward).
func (e *Engine) AlignCalls(next uint64) { e.calls.Store(next) }

// ForwardBatchCalls implements nn.BatchLayerPlan: one batch-major planned
// forward pass in the per-sample calibration domain. Sample i draws its
// readout-noise substreams from call index first + i*stride; with indices
// reserved through ReserveCalls to mirror a per-sample call sequence, the
// output is bit-identical to running the planned single-sample path on each
// sample in order. The caller must check BatchExact first; a
// sequentially-noisy detector cannot run batch-major. The output is a
// pooled scratch tensor; release-aware callers (the nn batch runner) return
// it with tensor.PutScratch.
func (lp *LayerPlan) ForwardBatchCalls(x *tensor.Tensor, first, stride uint64) (*tensor.Tensor, error) {
	var r convRun
	if err := r.begin(lp, x, 0, lp.cout, first, stride, false); err != nil {
		return nil, err
	}
	return r.finish(nil)
}

// compactPlanes copies the real columns of `planes` padded output planes
// (rows of ow valid samples at stride sd) into a contiguous buffer,
// dropping the junk columns the flattened sweep accumulates between rows.
func compactPlanes(dst, src []float64, planes, rows, sd, ow int) {
	di := 0
	for p := 0; p < planes; p++ {
		base := p * rows * sd
		for r := 0; r < rows; r++ {
			copy(dst[di:di+ow], src[base+r*sd:])
			di += ow
		}
	}
}

// sweepBatchDirectRange is the weight-stationary batched sweep over output
// channels [ocLo, ocHi): output channels are the parallel work items; for
// each (output channel, input channel) the signed quantized kernel is
// compacted once into positive and negative tap chains, and each chain of
// up to three taps sweeps every sample's padded plane in one
// register-tiled full-span pass. Per accumulator element the additions
// arrive in (input channel, ky, kx) order with sign-matching taps only
// (padding contributes exact +0), so each (sample, channel) output plane is
// bit-identical to the boundary-clipped sweep of the unplanned path.
// Channel oc lands at destination plane index oc-ocLo of partial-sum
// buffers holding dstCout planes per sample; per-channel work items are
// independent, so a range produces exactly the full sweep's stripes.
func (lp *LayerPlan) sweepBatchDirectRange(bp *batchParts, g padGeom, n int, groups [][2]int, ps *psumSet, workers, ocLo, ocHi, dstCout int) error {
	cin, k := lp.cin, lp.k
	return tensor.ParallelFor(ocHi-ocLo, workers, func(item int) error {
		oc := ocLo + item
		dstOC := oc - ocLo
		// Tap scratch is per work item: workers must not share it.
		var stack [50]sweepTap
		taps := stack[:]
		if k*k > 25 {
			taps = make([]sweepTap, 2*k*k)
		}
		for gi, grp := range groups {
			var tPP, tPN, tNP, tNN []float64
			if bufs := ps.terms[termPosPos]; bufs != nil {
				tPP = bufs[gi]
			}
			if bufs := ps.terms[termPosNeg]; bufs != nil {
				tPN = bufs[gi]
			}
			if bufs := ps.terms[termNegPos]; bufs != nil {
				tNP = bufs[gi]
			}
			if bufs := ps.terms[termNegNeg]; bufs != nil {
				tNN = bufs[gi]
			}
			posFirst, negFirst := true, true
			for ic := grp[0]; ic < grp[1]; ic++ {
				wBase := (oc*cin + ic) * k * k
				pos, neg := taps[:0], taps[k*k:k*k]
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						wv := lp.wq[wBase+ky*k+kx]
						if wv > 0 {
							pos = append(pos, sweepTap{wv, ky*g.sd + kx})
						} else if wv < 0 {
							neg = append(neg, sweepTap{-wv, ky*g.sd + kx})
						}
					}
				}
				if len(pos) > 0 {
					lp.sweepTapChains(bp, g, n, dstOC, dstCout, ic, pos, tPP, tNP, posFirst)
					posFirst = false
				}
				if len(neg) > 0 {
					lp.sweepTapChains(bp, g, n, dstOC, dstCout, ic, neg, tPN, tNN, negFirst)
					negFirst = false
				}
			}
			// A group slice with no weights of one sign leaves its pair's
			// planes unwritten; clear them so readout sees the zeros the
			// zero-initialized path would.
			if posFirst {
				lp.clearPair(g, n, dstOC, dstCout, tPP, tNP)
			}
			if negFirst {
				lp.clearPair(g, n, dstOC, dstCout, tPN, tNN)
			}
		}
		return nil
	})
}

// clearPair zeroes one (output channel, group) stripe of a cross-term pair,
// the no-contribution fallback of the store-first sweep. dstOC/dstCout
// locate the channel's destination plane (see sweepBatchDirectRange).
func (lp *LayerPlan) clearPair(g padGeom, n, dstOC, dstCout int, dp, dn []float64) {
	for b := 0; b < n; b++ {
		dstBase := (b*dstCout + dstOC) * g.dstPlane
		if dp != nil {
			clear(dp[dstBase : dstBase+g.span])
		}
		if dn != nil {
			clear(dn[dstBase : dstBase+g.span])
		}
	}
}

// sweepTapChains applies one sign's compacted taps for one (output channel,
// input channel) pair to every sample: chains of up to three taps each
// sweep a sample's full padded plane span before the next chain starts,
// preserving per-element tap order.
func (lp *LayerPlan) sweepTapChains(bp *batchParts, g padGeom, n, dstOC, dstCout, ic int, taps []sweepTap, dp, dn []float64, store bool) {
	cin := lp.cin
	for t := 0; t < len(taps); t += 3 {
		ch := taps[t:]
		if len(ch) > 3 {
			ch = ch[:3]
		}
		z := store && t == 0
		for b := 0; b < n; b++ {
			srcBase := (b*cin + ic) * g.srcPlane
			dstBase := (b*dstCout + dstOC) * g.dstPlane
			mixed := bp.hasPos[b] && bp.hasNeg[b]
			switch {
			case mixed:
				dP := dp[dstBase : dstBase+g.span]
				dN := dn[dstBase : dstBase+g.span]
				p := bp.pos[srcBase:]
				ng := bp.neg[srcBase:]
				switch {
				case len(ch) == 3 && z:
					axpy3MixedZ(dP, dN, p[ch[0].off:], p[ch[1].off:], p[ch[2].off:],
						ng[ch[0].off:], ng[ch[1].off:], ng[ch[2].off:], ch[0].c, ch[1].c, ch[2].c)
				case len(ch) == 3:
					axpy3Mixed(dP, dN, p[ch[0].off:], p[ch[1].off:], p[ch[2].off:],
						ng[ch[0].off:], ng[ch[1].off:], ng[ch[2].off:], ch[0].c, ch[1].c, ch[2].c)
				case len(ch) == 2 && z:
					axpy2MixedZ(dP, dN, p[ch[0].off:], p[ch[1].off:],
						ng[ch[0].off:], ng[ch[1].off:], ch[0].c, ch[1].c)
				case len(ch) == 2:
					axpy2Mixed(dP, dN, p[ch[0].off:], p[ch[1].off:],
						ng[ch[0].off:], ng[ch[1].off:], ch[0].c, ch[1].c)
				case z:
					axpy1MixedZ(dP, dN, p[ch[0].off:], ng[ch[0].off:], ch[0].c)
				default:
					axpy1Mixed(dP, dN, p[ch[0].off:], ng[ch[0].off:], ch[0].c)
				}
			case bp.hasPos[b]:
				lp.sweepSingle(dp[dstBase:dstBase+g.span], bp.pos[srcBase:], ch, z)
			case bp.hasNeg[b]:
				lp.sweepSingle(dn[dstBase:dstBase+g.span], bp.neg[srcBase:], ch, z)
			}
		}
	}
}

// sweepSingle dispatches one chain over a single activation part.
func (lp *LayerPlan) sweepSingle(d, part []float64, ch []sweepTap, z bool) {
	switch {
	case len(ch) == 3 && z:
		axpy3Z(d, part[ch[0].off:], part[ch[1].off:], part[ch[2].off:], ch[0].c, ch[1].c, ch[2].c)
	case len(ch) == 3:
		axpy3(d, part[ch[0].off:], part[ch[1].off:], part[ch[2].off:], ch[0].c, ch[1].c, ch[2].c)
	case len(ch) == 2 && z:
		axpy2Z(d, part[ch[0].off:], part[ch[1].off:], ch[0].c, ch[1].c)
	case len(ch) == 2:
		axpy2(d, part[ch[0].off:], part[ch[1].off:], ch[0].c, ch[1].c)
	case z:
		axpy1Z(d, part[ch[0].off:], ch[0].c)
	default:
		axpy1(d, part[ch[0].off:], ch[0].c)
	}
}
