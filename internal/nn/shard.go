// Sample-sharding support: what a multi-device scheduler needs to split one
// logical ForwardBatch across several same-seed engines while preserving
// the per-sample batch contract bit for bit.
//
// The contract rests on PR 5's call-reservation keying: a compiled plan
// consumes a fixed number of engine call indices per sample (one per
// engine-backed convolution, in execution order), and every readout-noise
// and fault-injection substream is keyed by (seed, call index, term,
// group). Sample i of a batch therefore draws exactly the substreams of
// logical call block base + i*stride, regardless of which engine executes
// it — provided that engine's counter is aligned to the block first. The
// device pool (internal/pool) keeps one logical call frontier, reserves
// n*stride indices per request, and aligns each device to its shard's
// offset before running it.
package nn

// CallAligner is implemented by engines whose readout and fault substreams
// are keyed by a monotonic Conv2D call counter (core.Engine and its
// unplanned twin). AlignCalls repositions the counter so the next consumed
// call block starts at next; Calls reads the current frontier.
type CallAligner interface {
	Calls() uint64
	AlignCalls(next uint64)
}

// AlignerOf unwraps engine wrappers (anything exposing Unwrap, e.g. the
// backend registry's spec-carrying wrapper) until it finds a CallAligner.
// nil means the engine keys nothing by call index — its results are
// call-position independent, so sharding needs no alignment.
func AlignerOf(e ConvEngine) CallAligner {
	for e != nil {
		if a, ok := e.(CallAligner); ok {
			return a
		}
		u, ok := e.(interface{ Unwrap() ConvEngine })
		if !ok {
			return nil
		}
		e = u.Unwrap()
	}
	return nil
}

// KeyedCallsPerSample reports how many engine call indices one sample
// consumes through this compiled plan — the sharding stride. A plan whose
// engine has no call counter at all returns 0: there is nothing to align
// and sharding is trivially exact.
func (p *NetworkPlan) KeyedCallsPerSample() uint64 {
	if AlignerOf(p.engine) == nil {
		return 0
	}
	return countKeyedSteps(p.steps)
}

// AlignEngineCalls positions the plan's engine call counter at next (see
// CallAligner). It reports false, doing nothing, when the engine keys no
// substreams by call index.
func (p *NetworkPlan) AlignEngineCalls(next uint64) bool {
	a := AlignerOf(p.engine)
	if a == nil {
		return false
	}
	a.AlignCalls(next)
	return true
}

// countKeyedSteps counts the steps that consume one engine call index per
// sample: planned convolutions and direct engine convolutions. Both the
// batch-major path (explicit reservation) and the per-sample fallback
// (counter increments inside Conv2D / LayerPlan.Forward) consume exactly
// this many indices per sample, in the same order.
func countKeyedSteps(steps []planStep) uint64 {
	var n uint64
	for _, s := range steps {
		switch st := s.(type) {
		case *convPlanStep, *convEngineStep:
			n++
		case *residualStep:
			n += countKeyedSteps(st.body) + countKeyedSteps(st.shortcut)
		}
	}
	return n
}
