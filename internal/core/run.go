package core

import (
	"fmt"
	"math/rand"

	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

// convRun is one planned convolution in flight: the single execution core
// behind every LayerPlan entry point. It runs in three stages:
//
//   - begin validates, quantizes the activations to DAC precision and
//     splits them into pseudo-negative parts, sweeps output channels
//     [ocLo, ocHi), compacts the partial sums, detects, and merges
//     per-channel charges into operating groups;
//   - scales: every (term, readout unit) ADC full scale is derived locally
//     by finish, or combined across channel ranges by the caller from the
//     maxima exportMaxima publishes;
//   - finish applies faults, reads every group out through its keyed
//     substream, accumulates the signed terms, and adds bias and stride.
//
// A readout unit is one calibration domain: one DAC scale, one
// part-presence decision, one call key, one ADC calibration, one fault pass
// and one readout stream per (term, group). The entry point picks the
// domain. In the per-sample domain (ForwardBatchCalls, channel ranges)
// every sample is a unit keyed first + b*stride. In the whole-call domain
// (Conv2D) the n-sample tensor is one unit under one call key, exactly as
// the unplanned Engine.Conv2D calibrates it.
type convRun struct {
	lp            *LayerPlan
	whole         bool
	n, units      int
	ocLo, ocHi    int
	oh, ow        int
	first, stride uint64
	// hasPos/hasNeg report per unit which activation parts it carries.
	hasPos, hasNeg []bool
	// views[term][gi] holds the n*(ocHi-ocLo)*oh*ow compacted, detected
	// charges of operating group gi, sample-major; nil for absent terms. On
	// the tiled path they alias ps's buffers; on the direct path they are
	// owned.
	views [numTerms][][]float64
	ps    *psumSet
	mx    nn.RangeMaxima
	done  bool
}

// begin is the run's first stage over output channels [ocLo, ocHi), which
// the caller has validated. whole selects the whole-call domain, whose one
// call key comes from the engine counter; the per-sample domain keys sample
// b as first + b*stride and needs a batch-exact detector.
func (r *convRun) begin(lp *LayerPlan, x *tensor.Tensor, ocLo, ocHi int, first, stride uint64, whole bool) error {
	e := lp.engine
	if lp.Stale() {
		return fmt.Errorf("core: %w: engine DAC/tiling config changed since PlanConv", nn.ErrStalePlan)
	}
	if !whole && !lp.BatchExact() {
		return fmt.Errorf("core: per-sample batch forward with a sequentially-noisy detector; run samples through Conv2D instead")
	}
	if e.NTA < 1 {
		return fmt.Errorf("core: NTA %d must be >= 1", e.NTA)
	}
	if x.Rank() != 4 {
		return fmt.Errorf("core: planned conv wants NCHW input, got %v", x.Shape)
	}
	n, cin := x.Shape[0], x.Shape[1]
	if cin != lp.cin {
		return fmt.Errorf("core: %w: channel mismatch %d vs %d", nn.ErrShapeMismatch, lp.cin, cin)
	}
	oh, ow := convOutHW(x.Shape[2], x.Shape[3], lp.k, lp.pad)
	if oh < 1 || ow < 1 {
		return fmt.Errorf("core: planned conv empty output for %v k=%d", x.Shape, lp.k)
	}
	units := n
	if whole {
		units, first, stride = 1, e.calls.Add(1), 0
	}
	// Outage is monotonic in the call index, so the last unit's key decides
	// for every unit at once.
	if units > 0 {
		if err := e.checkOutage(first + uint64(units-1)*stride); err != nil {
			return err
		}
	}
	*r = convRun{lp: lp, whole: whole, n: n, units: units, ocLo: ocLo, ocHi: ocHi, oh: oh, ow: ow, first: first, stride: stride}
	var err error
	if lp.cfg.tiled {
		err = r.beginTiled(x)
	} else {
		err = r.beginDirect(x)
	}
	if err != nil {
		r.Release()
	}
	return err
}

// beginDirect sweeps zero-padded planes with the store-first
// weight-stationary sweep and compacts every sample that carries a term's
// activation part, dropping the junk columns between padded rows.
func (r *convRun) beginDirect(x *tensor.Tensor) error {
	lp, e := r.lp, r.lp.engine
	n, rc := r.n, r.ocHi-r.ocLo
	g := newPadGeom(x.Shape[2], x.Shape[3], lp.k, lp.pad)
	bp, err := quantizeBatchPadded(x, lp.cfg.dacBits, g, r.whole)
	if err != nil {
		return err
	}
	defer bp.release()
	r.retain(bp)
	groups := lp.cachedGroups(e.NTA)
	detGroups := groups
	perChannel := e.Detector.PerChannel()
	if perChannel {
		// One sweep group per channel so Detect sees each channel.
		detGroups = lp.channelGroups()
	}
	workers := tensor.Workers(e.Parallelism)
	ps := newPsumSet(lp.presentTerms(bp), len(detGroups), n*rc*g.dstPlane)
	defer ps.release()
	if err := lp.sweepBatchDirectRange(bp, g, n, detGroups, ps, workers, r.ocLo, r.ocHi, rc); err != nil {
		return err
	}
	plane := rc * r.oh * r.ow
	for term, bufs := range ps.terms {
		if bufs == nil {
			continue
		}
		has := partFlags(term, bp.hasPos, bp.hasNeg)
		views := getViews(len(bufs))
		for gi, buf := range bufs {
			views[gi] = getFloats(n * plane)
			for b := 0; b < n; b++ {
				if has[b] {
					compactPlanes(views[gi][b*plane:], buf[b*rc*g.dstPlane:], rc, r.oh, g.sd, r.ow)
				}
			}
		}
		r.views[term] = views
	}
	return r.detect(groups, perChannel, workers)
}

// beginTiled sweeps through exact row-tiled shots against the plan's
// latched kernel spectra with the packed batch executor, one call per
// operating group, in both calibration domains: every distinct (sample,
// channel, shot, activation part) signal is transformed once into the
// spectrum arena and reused across output channels and both weight signs,
// each group's channels sum in the frequency domain before one inverse
// transform, and jtc.Shots advances by the packed BatchPlan schedule of the
// samples that carry each part. The planes come out compact, so the views
// alias the psum set until release. The tiled path detects per operating
// group, matching the unplanned groupPsumsTiled (see DESIGN.md).
func (r *convRun) beginTiled(x *tensor.Tensor) error {
	lp, e := r.lp, r.lp.engine
	n, oh, ow, ocLo, ocHi := r.n, r.oh, r.ow, r.ocLo, r.ocHi
	cin, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	bp, err := quantizeBatchPadded(x, lp.cfg.dacBits, padGeom{h: h, w: w, sd: w, srcRows: h, srcPlane: h * w}, r.whole)
	if err != nil {
		return err
	}
	defer bp.release()
	r.retain(bp)
	geo, err := lp.geometry(h, w)
	if err != nil {
		return err
	}
	groups := lp.cachedGroups(e.NTA)
	workers := tensor.Workers(e.Parallelism)
	per := (ocHi - ocLo) * oh * ow // one sample's planes
	ps := newPsumSet(lp.presentTerms(bp), len(groups), n*per)
	r.ps = ps
	// The executor's first-writer windows store every entry of a sample
	// that carries the term's activation part; the other samples' planes
	// see no shot and read as zero.
	for term, bufs := range ps.terms {
		has := partFlags(term, bp.hasPos, bp.hasNeg)
		for _, buf := range bufs {
			for b := 0; b < n; b++ {
				if !has[b] {
					clear(buf[b*per : (b+1)*per])
				}
			}
		}
	}
	// Groups are the packed sweep's parallel axis: each group's buffers are
	// disjoint and the shot→kernel→sample arena reuse stays intact per
	// group. The serial case loops directly so no closure materializes.
	switch {
	case workers <= 1 || len(groups) == 1:
		for gi, grp := range groups {
			if err := lp.tiledBatchGroupRange(bp, geo, ps, grp, gi, n, cin, h, w, oh, ow, ocLo, ocHi); err != nil {
				return err
			}
		}
	default:
		if err := tensor.ParallelFor(len(groups), workers, func(gi int) error {
			return lp.tiledBatchGroupRange(bp, geo, ps, groups[gi], gi, n, cin, h, w, oh, ow, ocLo, ocHi)
		}); err != nil {
			return err
		}
	}
	r.views = ps.terms
	return r.detect(groups, false, workers)
}

// retain copies the per-unit part flags out of bp, which the begin stage
// releases. Per-sample units are the samples; the whole-call unit carries
// the batch-wide presence.
func (r *convRun) retain(bp *batchParts) {
	r.hasPos, r.hasNeg = boolPool.Get(r.units), boolPool.Get(r.units)
	if r.whole {
		r.hasPos[0], r.hasNeg[0] = bp.pos != nil, bp.neg != nil
		return
	}
	copy(r.hasPos, bp.hasPos)
	copy(r.hasNeg, bp.hasNeg)
}

// detect applies the detector to the compacted planes in (term, group,
// element) order — the order the unplanned path draws a shared detector
// noise stream in — then merges per-channel charges into operating groups.
func (r *convRun) detect(groups [][2]int, perChannel bool, workers int) error {
	e := r.lp.engine
	for term, views := range r.views {
		if views == nil {
			continue
		}
		if err := e.detectBuffers(views, workers); err != nil {
			return err
		}
		if perChannel {
			r.views[term] = mergeGroups(views, groups)
			releaseViewBuffers(views)
		}
	}
	return nil
}

// finish is the run's last stage. scales holds the per-(term, unit) ADC
// full scales combined by the caller; nil derives each from the unit's own
// planes. The run is consumed.
func (r *convRun) finish(scales *[numTerms][]float64) (*tensor.Tensor, error) {
	defer r.Release()
	lp := r.lp
	rc := r.ocHi - r.ocLo
	out := tensor.GetScratchZeroed(r.n, rc, r.oh, r.ow)
	if err := r.readout(out.Data, scales); err != nil {
		tensor.PutScratch(out)
		return nil, err
	}
	if lp.bias != nil {
		plane := r.oh * r.ow
		for p := 0; p < r.n*rc; p++ {
			b, seg := lp.bias[r.ocLo+p%rc], out.Data[p*plane:(p+1)*plane]
			for i := range seg {
				seg[i] += b
			}
		}
	}
	if lp.stride == 1 {
		return out, nil
	}
	s := lp.stride
	dec := tensor.GetScratch(r.n, rc, (r.oh+s-1)/s, (r.ow+s-1)/s)
	err := tensor.Decimate2DInto(dec, out, s)
	tensor.PutScratch(out)
	if err != nil {
		tensor.PutScratch(dec)
		return nil, err
	}
	return dec, nil
}

// readout reads every active (term, unit) out into out: the fault pass and
// keyed readout of each group against the unit's scale, accumulated with
// the term's sign. A range starting at channel ocLo discards the ocLo*oh*ow
// leading draws of each substream, which belong to the channels below it.
func (r *convRun) readout(out []float64, scales *[numTerms][]float64) error {
	e := r.lp.engine
	unitPlane := (r.ocHi - r.ocLo) * r.oh * r.ow
	if r.whole {
		unitPlane *= r.n
	}
	noise := e.ReadoutNoise > 0 && e.ADCBits > 0
	skip := r.ocLo * r.oh * r.ow
	nGroups := 0
	for _, views := range r.views {
		nGroups = max(nGroups, len(views))
	}
	unit := getViews(nGroups)
	defer putViews(unit)
	for term, views := range r.views {
		if views == nil {
			continue
		}
		has := partFlags(term, r.hasPos, r.hasNeg)
		for u := 0; u < r.units; u++ {
			if !has[u] {
				continue
			}
			for gi, v := range views {
				unit[gi] = v[u*unitPlane : (u+1)*unitPlane]
			}
			var scale float64
			if scales != nil {
				scale = scales[term][u]
			} else {
				scale = e.hardwareScale(unit[:len(views)], r.lp.cin)
			}
			call := r.first + uint64(u)*r.stride
			for gi, v := range unit[:len(views)] {
				if err := e.applyGroupFaults(call, term, gi, v, scale); err != nil {
					return err
				}
				var rng *rand.Rand
				if noise {
					rng = e.readoutStream(call, term, gi)
					for i := 0; i < skip; i++ {
						rng.NormFloat64()
					}
				}
				if err := e.readoutAccum(v, scale, rng, termSign[term], out[u*unitPlane:(u+1)*unitPlane]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Release implements nn.ChannelRangeRun: every pooled buffer returns to
// its pool; idempotent.
func (r *convRun) Release() {
	if r.done {
		return
	}
	r.done = true
	if r.ps != nil {
		// Tiled path: the views alias the set's buffers.
		r.ps.release()
		r.ps = nil
		r.views = [numTerms][][]float64{}
	}
	for t, views := range r.views {
		if views != nil {
			releaseViewBuffers(views)
			r.views[t] = nil
		}
	}
	if r.hasPos != nil {
		boolPool.Put(r.hasPos)
		boolPool.Put(r.hasNeg)
		r.hasPos, r.hasNeg = nil, nil
	}
}

// partFlags returns the flags of the activation part a cross term reads.
func partFlags(term int, hasPos, hasNeg []bool) []bool {
	if term == termNegPos || term == termNegNeg {
		return hasNeg
	}
	return hasPos
}
