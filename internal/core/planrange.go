// Channel-range execution: the core half of output-channel sharding
// (nn.ChannelRangePlan). BeginBatchRange runs the per-sample run's first
// stage restricted to output channels [ocLo, ocHi) and publishes the raw
// per-(term, sample, hardware-group) calibration maxima; a multi-device
// scheduler combines the maxima of every range (nn.CombineRangeScales) so
// that Finish reads every range out against the SAME ADC full scale a
// single engine would have derived from the whole plane.
//
// Everything that keys noise or faults stays position-derived: the readout
// substream of (call, term, group) is the full plane's substream, and a
// range consuming channels [ocLo, ocHi) discards exactly ocLo*oh*ow leading
// Gaussian draws before reading its own elements, one draw per element, in
// plane order — the draws the single engine would have spent on the
// channels below the range. Drift and stuck-bit faults are elementwise
// given the (shared) scale and decompose trivially; the transient-misfire
// guard inspects whole-plane statistics and is therefore refused
// (CheckChannelRange errors when ShotRate > 0), as is percentile ADC
// calibration (a quantile does not decompose over channel ranges).
package core

import (
	"fmt"

	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

// The cross-term count is part of the exchange format with nn.
var _ [nn.NumCrossTerms]struct{} = [numTerms]struct{}{}

var _ nn.ChannelRangePlan = (*LayerPlan)(nil)

// OutChannels implements nn.ChannelRangePlan.
func (lp *LayerPlan) OutChannels() int { return lp.cout }

// CheckChannelRange implements nn.ChannelRangePlan: it refuses the engine
// configurations whose readout does not decompose over output-channel
// ranges.
func (lp *LayerPlan) CheckChannelRange() error {
	e := lp.engine
	if p := e.ADCCalibPercentile; p > 0 && p < 1 {
		return fmt.Errorf("core: percentile ADC calibration (%.3f) does not decompose over channel ranges", p)
	}
	if e.Faults != nil && e.Faults.ShotRate > 0 {
		return fmt.Errorf("core: transient-misfire guard needs whole readout planes; cannot channel-shard with shot faults")
	}
	return nil
}

// BeginBatchRange implements nn.ChannelRangePlan: the first stage of a
// channel-sharded batch forward over output channels [ocLo, ocHi), keyed
// exactly like ForwardBatchCalls(x, first, stride). The returned run holds
// the range's calibration maxima; readout completes in Finish once the
// scheduler has combined the maxima of every range.
func (lp *LayerPlan) BeginBatchRange(x *tensor.Tensor, ocLo, ocHi int, first, stride uint64) (nn.ChannelRangeRun, error) {
	if err := lp.CheckChannelRange(); err != nil {
		return nil, err
	}
	if ocLo < 0 || ocHi <= ocLo || ocHi > lp.cout {
		return nil, fmt.Errorf("core: channel range [%d,%d) out of [0,%d)", ocLo, ocHi, lp.cout)
	}
	r := &convRun{}
	if err := r.begin(lp, x, ocLo, ocHi, first, stride, false); err != nil {
		return nil, err
	}
	r.exportMaxima()
	return r, nil
}

// exportMaxima scans the range's compacted views into its raw calibration
// maxima: for every present term and active sample, the maximum absolute
// charge of each hardware accumulation group over the range — the charge
// hardwareScale calibrates on, restricted to the range's elements.
func (r *convRun) exportMaxima() {
	lp, e := r.lp, r.lp.engine
	plane := (r.ocHi - r.ocLo) * r.oh * r.ow
	nGroups := len(lp.cachedGroups(e.NTA))
	_, hw := e.hardwareChunk(lp.cin, nGroups)
	r.mx = nn.RangeMaxima{Samples: r.n, Groups: hw}
	unit := getViews(nGroups)
	defer putViews(unit)
	for term, views := range r.views {
		if views == nil {
			continue
		}
		maxima := make([]float64, r.n*hw)
		has := partFlags(term, r.hasPos, r.hasNeg)
		for b := 0; b < r.n; b++ {
			if !has[b] {
				continue
			}
			for gi, v := range views {
				unit[gi] = v[b*plane : (b+1)*plane]
			}
			e.hardwareGroups(unit[:len(views)], lp.cin, func(c int, charge []float64) {
				maxima[b*hw+c] = maxAbs(charge)
			})
		}
		r.mx.Terms[term] = maxima
	}
}

// Maxima implements nn.ChannelRangeRun.
func (r *convRun) Maxima() nn.RangeMaxima { return r.mx }

// Finish implements nn.ChannelRangeRun: the run's last stage against the
// scales combined over every range. The run is consumed.
func (r *convRun) Finish(scales *nn.RangeScales) (*tensor.Tensor, error) {
	if r.done {
		return nil, fmt.Errorf("core: channel-range run already finished")
	}
	if scales == nil || scales.Samples != r.n {
		r.Release()
		return nil, fmt.Errorf("core: channel-range scales missing or not sized for %d samples", r.n)
	}
	for t, views := range r.views {
		if views != nil && len(scales.Terms[t]) != r.n {
			r.Release()
			return nil, fmt.Errorf("core: combined scales lack present term %d", t)
		}
	}
	return r.finish(&scales.Terms)
}
