package core

import (
	"sync"

	"photofourier/internal/buf"
	"photofourier/internal/tiling"
)

// Pooled scratch for the batch-major tiled sweep: kernel-plan tables, the
// per-sample row-view tables, and the operand struct itself all recycle
// across calls so the steady state allocates nothing.
var (
	kernelPlanPool    buf.Pool[*tiling.KernelPlan]
	rowTabPool        buf.Pool[[][]float64]
	batchOperandsPool sync.Pool
)

// rowTableFor builds the per-sample row-view tables of one activation part:
// all[b] is an h-row window into the flat pooled backing, nil when the
// sample lacks the part. Returns the table and its backing for release.
func rowTableFor(part []float64, has []bool, n, h int) ([][][]float64, [][]float64) {
	if part == nil {
		return nil, nil
	}
	flat := getViews(n * h)
	all := rowTabPool.GetZeroed(n)
	for b := 0; b < n; b++ {
		if has[b] {
			all[b] = flat[b*h : (b+1)*h]
		}
	}
	return all, flat
}

// bindSampleRows repoints every present sample's row views at channel ic of
// part.
func bindSampleRows(all [][][]float64, part []float64, ic, n, cin, h, w int) [][][]float64 {
	if all == nil {
		return nil
	}
	for b := 0; b < n; b++ {
		rows := all[b]
		if rows == nil {
			continue
		}
		base := (b*cin + ic) * h * w
		for r := 0; r < h; r++ {
			rows[r] = part[base+r*w : base+(r+1)*w]
		}
	}
	return all
}

// accTableForRange builds one term's (sample, kernel) → accumulator-plane
// table over group gi for output channels [ocLo, ocHi), whose rc planes per
// sample the psum buffers hold; samples without the term's activation part
// stay nil (skipped by the executor). The table comes from the views pool;
// callers release it with putViews.
func accTableForRange(ps *psumSet, bp *batchParts, term, gi, n, rc, plane int) [][]float64 {
	bufs := ps.terms[term]
	if bufs == nil {
		return nil
	}
	accs := getViewsZeroed(n * rc)
	has := partFlags(term, bp.hasPos, bp.hasNeg)
	for b := 0; b < n; b++ {
		if !has[b] {
			continue
		}
		for j := 0; j < rc; j++ {
			off := (b*rc + j) * plane
			accs[b*rc+j] = bufs[gi][off : off+plane]
		}
	}
	return accs
}

// tiledBatchGroupRange runs one operating group's batch-major sweep over
// output channels [ocLo, ocHi): pooled row/kernel/accumulator tables are
// bound, every input channel of the group walks the packed executor, and
// the scratch returns to its pools (abandoned to the GC on the exceptional
// error paths). Only the range's kernels are correlated (and counted as
// shots), and each accumulator receives exactly the additions the
// full-plane executor would deliver to that (sample, channel) plane, in the
// same shot order.
func (lp *LayerPlan) tiledBatchGroupRange(bp *batchParts, geo *layerGeo, ps *psumSet, g [2]int, gi, n, cin, h, w, oh, ow, ocLo, ocHi int) error {
	rc := ocHi - ocLo
	rowsPos, rowsPosFlat := rowTableFor(bp.pos, bp.hasPos, n, h)
	rowsNeg, rowsNegFlat := rowTableFor(bp.neg, bp.hasNeg, n, h)
	var kbufPos, kbufNeg []*tiling.KernelPlan
	if geo.kpos != nil {
		kbufPos = kernelPlanPool.Get(rc)
	}
	if geo.kneg != nil {
		kbufNeg = kernelPlanPool.Get(rc)
	}
	op, _ := batchOperandsPool.Get().(*tiling.BatchConvOperands)
	if op == nil {
		op = &tiling.BatchConvOperands{}
	}
	op.KPos, op.KNeg = kbufPos, kbufNeg
	op.Accs[0] = accTableForRange(ps, bp, termPosPos, gi, n, rc, oh*ow)
	op.Accs[1] = accTableForRange(ps, bp, termPosNeg, gi, n, rc, oh*ow)
	op.Accs[2] = accTableForRange(ps, bp, termNegPos, gi, n, rc, oh*ow)
	op.Accs[3] = accTableForRange(ps, bp, termNegNeg, gi, n, rc, oh*ow)
	for ic := g[0]; ic < g[1]; ic++ {
		op.Pos = bindSampleRows(rowsPos, bp.pos, ic, n, cin, h, w)
		op.Neg = bindSampleRows(rowsNeg, bp.neg, ic, n, cin, h, w)
		if kbufPos != nil {
			for j := 0; j < rc; j++ {
				kbufPos[j] = geo.kpos[(ocLo+j)*cin+ic]
			}
		}
		if kbufNeg != nil {
			for j := 0; j < rc; j++ {
				kbufNeg[j] = geo.kneg[(ocLo+j)*cin+ic]
			}
		}
		if err := geo.tp.Conv2DPlannedAccumBatch(op); err != nil {
			return err
		}
	}
	for i, accs := range op.Accs {
		if accs != nil {
			clear(accs)
			putViews(accs)
			op.Accs[i] = nil
		}
	}
	if rowsPosFlat != nil {
		clear(rowsPosFlat)
		putViews(rowsPosFlat)
		clear(rowsPos)
		rowTabPool.Put(rowsPos)
	}
	if rowsNegFlat != nil {
		clear(rowsNegFlat)
		putViews(rowsNegFlat)
		clear(rowsNeg)
		rowTabPool.Put(rowsNeg)
	}
	if kbufPos != nil {
		clear(kbufPos)
		kernelPlanPool.Put(kbufPos)
	}
	if kbufNeg != nil {
		clear(kbufNeg)
		kernelPlanPool.Put(kbufNeg)
	}
	*op = tiling.BatchConvOperands{}
	batchOperandsPool.Put(op)
	return nil
}
