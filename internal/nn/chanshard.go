// Channel-shard support: what a multi-device scheduler needs to split one
// layer's OUTPUT CHANNELS across several same-seed engines while staying
// bit-identical to single-engine execution.
//
// The obstacle is ADC full-scale calibration: the scale of one (call, term)
// readout is derived from the partial-sum maxima of the WHOLE output plane,
// which no device computing only a channel range can see. The split
// therefore runs in two phases. Phase one (BeginBatchRange) sweeps and
// detects the device's range and exports the RAW per-(term, sample,
// hardware-group) plane maxima. The scheduler combines the maxima of every
// range elementwise (max is exact and order-free over disjoint channel
// ranges, so the combined maximum is bit-identical to a full-plane scan)
// and derives the shared scales with CombineRangeScales. Phase two (Finish)
// replays faults and keyed readout noise against the combined scale;
// readout substreams stay position-derived — a device consuming channels
// [lo, hi) of a (call, term, group) substream discards exactly lo*oh*ow
// leading draws, so every element sees the same Gaussian the single engine
// would have drawn for it.
package nn

import (
	"fmt"

	"photofourier/internal/tensor"
)

// NumCrossTerms is the number of pseudo-negative cross terms a sign-split
// readout produces ((+x,+w), (+x,-w), (-x,+w), (-x,-w)); channel-shard
// calibration state is exchanged per term.
const NumCrossTerms = 4

// RangeMaxima carries one channel range's raw calibration maxima out of
// BeginBatchRange: for every present cross term, the per-(sample,
// hardware-group) maximum absolute accumulated charge over the range's
// output channels. Raw means no fallback mapping has been applied — a
// sample/group with no charge (or an inactive sample) reports 0.
type RangeMaxima struct {
	// Samples is the batch size, Groups the hardware calibration group
	// count (operating groups merged to the accumulation depth).
	Samples, Groups int
	// Terms[t] is sample-major: Terms[t][b*Groups+g]. nil when term t is
	// absent from the batch (no activation part or no weight sign).
	Terms [NumCrossTerms][]float64
}

// RangeScales holds the combined per-(term, sample) ADC full scales every
// range's Finish must read out against. Entries of inactive samples are
// never read.
type RangeScales struct {
	Samples int
	Terms   [NumCrossTerms][]float64 // len Samples; nil when the term is absent
}

// CombineRangeScales reduces the raw maxima of every channel range to the
// shared ADC full scales, reproducing the single-engine derivation exactly:
// per hardware group the full-plane maximum is the max over ranges (exact
// for disjoint ranges), a chargeless group calibrates to scale 1, and the
// term scale is the maximum over hardware groups — the max-fold
// core.hardwareScale performs over its per-group calibrations.
func CombineRangeScales(parts []RangeMaxima) (*RangeScales, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("nn: combine scales of zero ranges")
	}
	ref := parts[0]
	for _, p := range parts[1:] {
		if p.Samples != ref.Samples || p.Groups != ref.Groups {
			return nil, fmt.Errorf("nn: range maxima disagree on geometry: (%d,%d) vs (%d,%d)",
				p.Samples, p.Groups, ref.Samples, ref.Groups)
		}
		for t := range p.Terms {
			if (p.Terms[t] == nil) != (ref.Terms[t] == nil) {
				return nil, fmt.Errorf("nn: range maxima disagree on term %d presence", t)
			}
		}
	}
	out := &RangeScales{Samples: ref.Samples}
	for t := range ref.Terms {
		if ref.Terms[t] == nil {
			continue
		}
		scales := make([]float64, ref.Samples)
		for b := 0; b < ref.Samples; b++ {
			scale := 0.0
			for g := 0; g < ref.Groups; g++ {
				m := 0.0
				for _, p := range parts {
					if v := p.Terms[t][b*ref.Groups+g]; v > m {
						m = v
					}
				}
				if m <= 0 {
					m = 1
				}
				if m > scale {
					scale = m
				}
			}
			scales[b] = scale
		}
		out.Terms[t] = scales
	}
	return out, nil
}

// ChannelRangeRun is one in-flight channel-range execution between its two
// phases: the sweep/detect work is done, the calibration maxima are ready,
// and readout waits for the combined scales. Exactly one of Finish or
// Release must be called.
type ChannelRangeRun interface {
	// Maxima returns the range's raw calibration maxima (valid until
	// Finish/Release).
	Maxima() RangeMaxima
	// Finish completes readout against the combined scales and returns the
	// range's output tensor (n x (ocHi-ocLo) x oh' x ow', bias added and
	// stride decimation applied). The run is consumed.
	Finish(scales *RangeScales) (*tensor.Tensor, error)
	// Release abandons the run without readout (error paths).
	Release()
}

// ChannelRangePlan is the channel-range extension of a batch layer plan
// (implemented by core.LayerPlan): BeginBatchRange runs phase one of a
// two-phase channel-sharded batch forward over output channels [ocLo,
// ocHi). first/stride key per-sample readout substreams exactly as
// ForwardBatchCalls would; the range restriction never changes a key.
type ChannelRangePlan interface {
	// OutChannels is the layer's full output channel count.
	OutChannels() int
	// CheckChannelRange reports why the layer's engine configuration
	// cannot run a channel range (nil when it can); BeginBatchRange
	// refuses with the same error.
	CheckChannelRange() error
	BeginBatchRange(x *tensor.Tensor, ocLo, ocHi int, first, stride uint64) (ChannelRangeRun, error)
}

// ChannelStep is one step of a channel-shardable compiled plan: either an
// engine-backed convolution exposing the channel-range entry point, or a
// CPU step every scheduler replica runs identically from the full
// activation.
type ChannelStep struct {
	// Name echoes the plan step name for logs.
	Name string
	// Range is non-nil for engine convolution steps.
	Range ChannelRangePlan
	run   func(x *tensor.Tensor) (*tensor.Tensor, error)
}

// Run executes a CPU step once (Range == nil). The returned tensor is a
// plan-owned scratch tensor disjoint from x.
func (s ChannelStep) Run(x *tensor.Tensor) (*tensor.Tensor, error) { return s.run(x) }

// ChannelShardSteps lowers the plan to a channel-shardable step list, or
// explains why it cannot be sharded by output channel: every convolution
// must be an engine-planned step whose plan batches exactly, implements
// ChannelRangePlan and passes its CheckChannelRange, and the chain must be
// linear — residual steps would need activations no single range holds.
func (p *NetworkPlan) ChannelShardSteps() ([]ChannelStep, error) {
	out := make([]ChannelStep, 0, len(p.steps))
	for _, s := range p.steps {
		switch st := s.(type) {
		case *convPlanStep:
			if st.batch == nil {
				return nil, fmt.Errorf("nn: %s has no batch-major plan; cannot channel-shard", s.name())
			}
			if !st.batch.BatchExact() {
				return nil, fmt.Errorf("nn: %s is not batch-exact (sequentially-noisy detector); cannot channel-shard", s.name())
			}
			rp, ok := st.plan.(ChannelRangePlan)
			if !ok {
				return nil, fmt.Errorf("nn: %s layer plan (%T) has no channel-range entry point", s.name(), st.plan)
			}
			if err := rp.CheckChannelRange(); err != nil {
				return nil, fmt.Errorf("nn: %s: %w", s.name(), err)
			}
			out = append(out, ChannelStep{Name: s.name(), Range: rp})
		case reluStep, *maxPoolStep, gapStep, *denseStep:
			step := s
			out = append(out, ChannelStep{Name: s.name(), run: func(x *tensor.Tensor) (*tensor.Tensor, error) {
				return step.run(p, x, false, nil)
			}})
		default:
			return nil, fmt.Errorf("nn: step %s is not channel-shardable", s.name())
		}
	}
	return out, nil
}
