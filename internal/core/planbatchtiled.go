package core

import (
	"sync"

	"photofourier/internal/buf"
	"photofourier/internal/tiling"
)

// Pooled scratch for the batch-major tiled sweep: kernel-plan tables, the
// (sample, channel) row-view tables, and the operand struct itself all
// recycle across calls so the steady state allocates nothing.
var (
	kernelPlanPool    buf.Pool[*tiling.KernelPlan]
	rowTabPool        buf.Pool[[][]float64]
	batchOperandsPool sync.Pool
)

// rowTableFor builds the (sample, channel) row-view table of one activation
// part over the input channels of group g: all[b*G+c] is sample b's channel
// g[0]+c as h rows of part, nil when the sample lacks the part. Returns
// the table and its flat pooled backing for release.
func rowTableFor(part []float64, has []bool, g [2]int, n, cin, h, w int) ([][][]float64, [][]float64) {
	if part == nil {
		return nil, nil
	}
	gc := g[1] - g[0]
	flat := getViews(n * gc * h)
	all := rowTabPool.GetZeroed(n * gc)
	for b := 0; b < n; b++ {
		if !has[b] {
			continue
		}
		for c := 0; c < gc; c++ {
			rows := flat[(b*gc+c)*h : (b*gc+c+1)*h]
			base := (b*cin + g[0] + c) * h * w
			for r := range rows {
				rows[r] = part[base+r*w : base+(r+1)*w]
			}
			all[b*gc+c] = rows
		}
	}
	return all, flat
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
// output channels [ocLo, ocHi) as ONE executor call: pooled row, kernel and
// accumulator tables over the group's channels are bound once, the packed
// executor sums the group's channels in the frequency domain, and the
// scratch returns to its pools (abandoned to the GC on the exceptional
// error paths). Only the range's kernels are correlated (and counted as
// shots), and each accumulator receives exactly the additions the
// full-plane executor would deliver to that (sample, channel) plane, in the
// same shot order.
func (lp *LayerPlan) tiledBatchGroupRange(bp *batchParts, geo *layerGeo, ps *psumSet, g [2]int, gi, n, cin, h, w, oh, ow, ocLo, ocHi int) error {
	rc, gc := ocHi-ocLo, g[1]-g[0]
	rowsPos, rowsPosFlat := rowTableFor(bp.pos, bp.hasPos, g, n, cin, h, w)
	rowsNeg, rowsNegFlat := rowTableFor(bp.neg, bp.hasNeg, g, n, cin, h, w)
	kbufPos := groupKernels(geo.kpos, g, cin, ocLo, rc)
	kbufNeg := groupKernels(geo.kneg, g, cin, ocLo, rc)
	op, _ := batchOperandsPool.Get().(*tiling.BatchConvOperands)
	if op == nil {
		op = &tiling.BatchConvOperands{}
	}
	op.Channels = gc
	op.Pos, op.Neg = rowsPos, rowsNeg
	op.KPos, op.KNeg = kbufPos, kbufNeg
	op.Accs[0] = accTableForRange(ps, bp, termPosPos, gi, n, rc, oh*ow)
	op.Accs[1] = accTableForRange(ps, bp, termPosNeg, gi, n, rc, oh*ow)
	op.Accs[2] = accTableForRange(ps, bp, termNegPos, gi, n, rc, oh*ow)
	op.Accs[3] = accTableForRange(ps, bp, termNegNeg, gi, n, rc, oh*ow)
	if err := geo.tp.Conv2DPlannedAccumBatch(op); err != nil {
		return err
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

// groupKernels returns a pooled table of the kernel plans of output
// channels [ocLo, ocLo+rc) over the input channels of group g, as the
// executor indexes them: entry j*G+c latches output channel ocLo+j's input
// channel g[0]+c. nil when the weight sign is absent.
func groupKernels(kps []*tiling.KernelPlan, g [2]int, cin, ocLo, rc int) []*tiling.KernelPlan {
	if kps == nil {
		return nil
	}
	gc := g[1] - g[0]
	out := kernelPlanPool.Get(rc * gc)
	for j := 0; j < rc; j++ {
		copy(out[j*gc:(j+1)*gc], kps[(ocLo+j)*cin+g[0]:(ocLo+j)*cin+g[1]])
	}
	return out
}
