// Per-step plan access: the static metadata of every compiled step and the
// execution of a step range. Per-step profiles time the steps one at a
// time from these, and price each convolution with a cost model (the
// arch performance model's column beside the measured one).
//
// A step range draws the same keyed call indices it would inside a whole
// forward when the caller aligns the engine counter first: steps [s0, s1)
// of a plan whose keyed prefix before s0 is k0 run sample b after
// AlignEngineCalls(base + b*stride + k0).
package nn

import (
	"fmt"

	"photofourier/internal/tensor"
)

// ConvGeom is the geometry of one engine convolution step, enough for an
// external cost model (e.g. internal/arch's per-layer evaluator) to price
// it: input channels/height/width, output channels, kernel, stride, pad.
type ConvGeom struct {
	Cin, Cout, H, W, K, Stride int
	Pad                        tensor.PadMode
}

// StepMeta describes one compiled plan step for per-step profiling and
// cost modelling.
type StepMeta struct {
	Name string
	// Keyed is the engine call indices the step consumes per sample.
	Keyed uint64
	// Conv is the step's convolution geometry; nil for non-convolution
	// steps (and for composite steps such as residual blocks).
	Conv *ConvGeom
	// Out is the per-sample output shape after the step.
	Out []int
}

// StepMetas walks the plan once for a (c, h, w) input sample and returns
// per-step metadata: keyed call consumption, convolution geometry where the
// step is a convolution, and output shapes. It fails on opaque fallback
// steps, whose shapes and engine usage cannot be derived statically.
func (p *NetworkPlan) StepMetas(c, h, w int) ([]StepMeta, error) {
	out := make([]StepMeta, 0, len(p.steps))
	in := []int{c, h, w}
	for _, s := range p.steps {
		shape, err := s.outShape(in)
		if err != nil {
			return nil, fmt.Errorf("nn: %s step on %v: %w", s.name(), in, err)
		}
		if shape == nil {
			return nil, fmt.Errorf("nn: step %s has no static geometry", s.name())
		}
		keyed, ok := countKeyedSteps([]planStep{s})
		if !ok {
			return nil, fmt.Errorf("nn: step %s hides engine usage", s.name())
		}
		m := StepMeta{Name: s.name(), Keyed: keyed, Out: shape}
		if conv := stepConv(s); conv != nil && len(in) == 3 {
			w := conv.Weight.W
			m.Conv = &ConvGeom{
				Cin: w.Shape[1], Cout: w.Shape[0],
				H: in[1], W: in[2], K: w.Shape[2],
				Stride: conv.Stride, Pad: conv.Pad,
			}
		}
		out = append(out, m)
		in = shape
	}
	return out, nil
}

// stepConv returns the convolution module behind a single-conv step.
func stepConv(s planStep) *Conv {
	switch st := s.(type) {
	case *convPlanStep:
		return st.c
	case *convEngineStep:
		return st.c
	case *convRefStep:
		return st.c
	}
	return nil
}

// ForwardSteps runs steps [from, to) of the compiled plan over an NCHW
// batch and returns the resulting activation. The caller owns the returned
// tensor (a pooled scratch tensor, recyclable with tensor.PutScratch) and
// keeps ownership of x. Call-keyed engines must be aligned by the caller
// (AlignEngineCalls) before every invocation; the steps consume indices
// through the per-sample counter path.
func (p *NetworkPlan) ForwardSteps(x *tensor.Tensor, from, to int) (*tensor.Tensor, error) {
	if p.Stale() {
		return nil, fmt.Errorf("nn: %w: training or an engine config change invalidated the network plan; recompile with Network.Compile", ErrStalePlan)
	}
	if x.Rank() != 4 || x.Shape[0] < 1 {
		return nil, fmt.Errorf("nn: %w: step-range forward wants a non-empty NCHW batch, got %v", ErrShapeMismatch, x.Shape)
	}
	if from < 0 || to > len(p.steps) || from > to {
		return nil, fmt.Errorf("nn: step range [%d,%d) out of bounds (plan has %d steps)", from, to, len(p.steps))
	}
	out, own, err := p.runSteps(p.steps[from:to], x, false)
	if err != nil {
		return nil, err
	}
	if !own {
		clone := p.newTensor(out.Shape...)
		copy(clone.Data, out.Data)
		out = clone
	}
	return out, nil
}
