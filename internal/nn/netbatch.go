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
	if n == 1 {
		// A single sample IS the per-sample path.
		return p.runChain(p.steps, x, nil)
	}
	if p.batchMajor() {
		// A batch-major-safe plan reserves the call-index block a
		// per-sample loop would consume.
		bc := &batchCtx{stride: uint64(len(p.batchPlans))}
		if len(p.batchPlans) > 0 {
			bc.base = p.batchPlans[0].ReserveCalls(uint64(n) * bc.stride)
		}
		return p.runChain(p.steps, x, bc)
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
// substreams) and engine steps must be batch-invariant substrates.
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
		}
	}
	return true
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
		res, err := p.runChain(p.steps, sample, nil)
		if err != nil {
			return nil, err
		}
		if out == nil {
			shape := append([]int{n}, res.Shape[1:]...)
			out = tensor.New(shape...)
		}
		rowLen := res.Size()
		copy(out.Data[b*rowLen:(b+1)*rowLen], res.Data)
		if res != sample {
			tensor.PutScratch(res)
		}
	}
	return out, nil
}
