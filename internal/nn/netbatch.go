package nn

import (
	"fmt"

	"photofourier/internal/tensor"
)

// ForwardBatch runs one compiled inference pass over an NCHW batch with
// PER-SAMPLE semantics: the logits are bit-identical to calling Forward on
// each sample alone, in order, including quantized-engine DAC scales, ADC
// calibration, and keyed readout noise. Forward, by contrast, treats the
// batch as one quantization/calibration domain, so its per-sample results
// depend on co-batched neighbors for quantized engines.
//
// When every compiled step can execute batch-major (reference and exact
// engine steps, and planned layers whose BatchLayerPlan reports BatchExact),
// the whole batch stays resident per step and planned layers run their
// batch fast path, with n*L engine call indices reserved up front so sample
// i's layer-l readout substream is keyed exactly as the per-sample loop
// would key it. Otherwise ForwardBatch degrades to literally running the
// samples one at a time through the compiled steps — slower, but the
// per-sample contract holds unconditionally.
//
// The serving layer batches through this path, which makes micro-batch
// composition invisible in results for every noise-free substrate.
func (p *NetworkPlan) ForwardBatch(x *tensor.Tensor) (*tensor.Tensor, error) {
	if p.Stale() {
		return nil, fmt.Errorf("nn: %w: training or an engine config change invalidated the network plan; recompile with Network.Compile", ErrStalePlan)
	}
	if x.Rank() != 4 {
		return nil, fmt.Errorf("nn: %w: compiled batch forward wants NCHW input, got %v", ErrShapeMismatch, x.Shape)
	}
	n := x.Shape[0]
	if n < 1 {
		return nil, fmt.Errorf("nn: %w: compiled batch forward wants a non-empty batch, got %v", ErrShapeMismatch, x.Shape)
	}
	if _, err := p.StepShapes(x.Shape[1], x.Shape[2], x.Shape[3]); err != nil {
		return nil, err
	}
	if n == 1 || p.batchMajor() {
		// A single sample IS the per-sample path; a batch-major-safe plan
		// reserves the call-index block a per-sample loop would consume.
		bc := &batchCtx{stride: uint64(len(p.batchPlans))}
		if n > 1 && len(p.batchPlans) > 0 {
			bc.base = p.batchPlans[0].ReserveCalls(uint64(n) * bc.stride)
		}
		out, _, err := p.runStepsBatch(p.steps, x, false, n > 1, bc)
		return out, err
	}
	return p.forwardPerSample(x)
}

// batchCtx threads the reserved call-index block through one batch-major
// pass; next counts planned layers in execution order.
type batchCtx struct {
	base   uint64
	stride uint64
	next   uint64
}

// batchMajor reports whether every compiled step can run batch-major with
// per-sample semantics: planned layers must batch exactly (keyed noise
// substreams), engine steps must be batch-invariant substrates, and opaque
// fallback modules disqualify the plan (their batch semantics are unknown).
func (p *NetworkPlan) batchMajor() bool {
	if !stepsBatchMajor(p.steps) {
		return false
	}
	for _, bp := range p.batchPlans {
		if !bp.BatchExact() {
			return false
		}
	}
	return true
}

func stepsBatchMajor(steps []planStep) bool {
	for _, s := range steps {
		switch st := s.(type) {
		case *convPlanStep:
			if st.batch == nil {
				return false
			}
		case *convEngineStep:
			caps := CapabilitiesOf(st.engine)
			if caps.Quantized || caps.Noisy {
				return false
			}
		case *residualStep:
			if !stepsBatchMajor(st.body) || !stepsBatchMajor(st.shortcut) {
				return false
			}
		case *forwardStep:
			return false
		}
	}
	return true
}

// runStepsBatch is runSteps with planned-layer steps routed through their
// batch fast path (when batch is true) and residual chains recursed with
// the shared call context; all other steps already execute per sample.
func (p *NetworkPlan) runStepsBatch(steps []planStep, x *tensor.Tensor, own, batch bool, bc *batchCtx) (*tensor.Tensor, bool, error) {
	cur, curOwn := x, own
	for _, s := range steps {
		var out *tensor.Tensor
		var err error
		owns := s.ownsOutput()
		switch st := s.(type) {
		case *convPlanStep:
			if batch {
				l := bc.next
				bc.next++
				out, err = st.batch.ForwardBatchCalls(cur, bc.base+l+1, bc.stride)
			} else {
				out, err = st.run(p, cur, curOwn)
			}
		case *residualStep:
			out, err = st.runBatch(p, cur, batch, bc)
		default:
			out, err = s.run(p, cur, curOwn)
		}
		if err != nil {
			return nil, false, err
		}
		if out != cur {
			if curOwn && owns {
				tensor.PutScratch(cur)
			}
			curOwn = owns
		}
		cur = out
	}
	return cur, curOwn, nil
}

// runBatch mirrors residualStep.run with batch-aware sub-chains: body fully
// executes before the shortcut, matching the planned-layer ordinal order a
// per-sample pass produces.
func (s *residualStep) runBatch(p *NetworkPlan, x *tensor.Tensor, batch bool, bc *batchCtx) (*tensor.Tensor, error) {
	main, mainOwn, err := p.runStepsBatch(s.body, x, false, batch, bc)
	if err != nil {
		return nil, err
	}
	side, sideOwn := x, false
	if s.hasShortcut {
		if side, sideOwn, err = p.runStepsBatch(s.shortcut, x, false, batch, bc); err != nil {
			return nil, err
		}
	}
	if !mainOwn {
		clone := p.newTensor(main.Shape...)
		copy(clone.Data, main.Data)
		main = clone
	}
	if err := main.AddInPlace(side); err != nil {
		return nil, fmt.Errorf("nn: residual shapes %v vs %v: %w", main.Shape, side.Shape, err)
	}
	if sideOwn {
		tensor.PutScratch(side)
	}
	return main, nil
}

// forwardPerSample is the unconditional-contract fallback: each sample runs
// alone through the compiled steps, in order, and the per-sample results
// are stacked. Engine call counters advance exactly as a caller-side loop
// would advance them.
func (p *NetworkPlan) forwardPerSample(x *tensor.Tensor) (*tensor.Tensor, error) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	per := c * h * w
	var out *tensor.Tensor
	for b := 0; b < n; b++ {
		sample := &tensor.Tensor{Shape: []int{1, c, h, w}, Data: x.Data[b*per : (b+1)*per]}
		res, resOwn, err := p.runSteps(p.steps, sample, false)
		if err != nil {
			return nil, err
		}
		if out == nil {
			shape := append([]int{n}, res.Shape[1:]...)
			out = tensor.New(shape...)
		}
		rowLen := res.Size()
		copy(out.Data[b*rowLen:(b+1)*rowLen], res.Data)
		if resOwn {
			tensor.PutScratch(res)
		}
	}
	return out, nil
}
