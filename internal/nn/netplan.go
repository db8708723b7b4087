package nn

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"photofourier/internal/tensor"
)

// Container is a module that composes other modules. Walk uses it to
// traverse the module graph generically, replacing per-type traversal
// switches.
type Container interface {
	// Children returns the directly contained modules in execution order.
	Children() []Module
}

// Plannable is a module whose inference path routes through a pluggable
// ConvEngine. SetConvEngine and the network compiler discover such modules
// through Walk instead of hardcoding layer types.
type Plannable interface {
	Module
	// SetEngine routes the module's inference through e (nil = reference).
	SetEngine(e ConvEngine)
}

// Walk visits m and every module reachable through Container children in
// pre-order execution order.
func Walk(m Module, visit func(Module)) {
	if m == nil {
		return
	}
	visit(m)
	if c, ok := m.(Container); ok {
		for _, child := range c.Children() {
			Walk(child, visit)
		}
	}
}

// NetworkPlan is a whole network compiled for repeated inference under one
// engine: the module graph is walked once at compile time into a flattened
// step list, every convolution's LayerPlan is compiled eagerly (weights
// quantized, sign-split, and spectrally latched before the first sample
// arrives), and execution streams activations through pooled per-geometry
// buffers with per-sample parallelism on the non-engine steps — so serving
// many batches pays no module-graph walking, no lazy plan compilation, and
// no per-layer activation allocation.
//
// Forward output is bit-identical to Network.Forward on the same network
// with SetConvEngine(engine), at every Parallelism setting (for noisy
// engine configurations, identical engine call sequences are also
// required, as with any shared noisy engine).
//
// A NetworkPlan is an immutable snapshot: later SetConvEngine calls or
// weight edits on the source network do not change it. A training step on
// the source network (Conv.Backward, or an explicit InvalidatePlan) marks
// the plan Stale, and Forward refuses to run until the holder recompiles.
// Plans are safe for concurrent Forward calls.
type NetworkPlan struct {
	// Name echoes the source network's name for reports.
	Name string

	// Parallelism bounds the worker pool the plan's sample-parallel steps
	// use (reference convolutions, activations, pooling, dense rows).
	// <= 0 selects runtime.NumCPU(); 1 runs serially. Engine-backed steps
	// keep their engine's own Parallelism knob. Parallel output is
	// bit-identical to serial at any setting.
	Parallelism int

	engine ConvEngine
	src    *Network // source network, for recompiling onto another engine
	steps  []planStep

	// convs snapshots each convolution layer's invalidation generation at
	// compile time; layerPlans lists the eagerly compiled per-layer plans
	// (engine-config staleness); batchPlans lists, in execution order, the
	// plans offering the batch-major extension (ForwardBatch keys
	// per-sample call indices through them).
	convs      []convSnapshot
	layerPlans []LayerPlan
	batchPlans []BatchLayerPlan

	geoMu sync.Mutex
	geos  map[geoKey][]StepShape
}

type convSnapshot struct {
	c   *Conv
	gen uint64
}

type geoKey struct{ c, h, w int }

// Compile walks the module graph once and compiles the network for
// inference under the given engine (nil = exact reference path). Engines
// implementing LayerPlanner have every convolution layer's LayerPlan
// compiled eagerly, so the first Forward already runs the fully latched
// path. A module type the compiler has no step for is an error.
func (n *Network) Compile(engine ConvEngine) (*NetworkPlan, error) {
	p := &NetworkPlan{Name: n.Name, engine: engine, src: n}
	steps, err := p.compile(n.Root)
	if err != nil {
		return nil, fmt.Errorf("nn: compile %s: %w", n.Name, err)
	}
	p.steps = steps
	return p, nil
}

// Engine returns the engine the plan compiled against (nil = reference).
func (p *NetworkPlan) Engine() ConvEngine { return p.engine }

// Source returns the network the plan was compiled from, so holders can
// recompile it onto another engine (e.g. serving failover onto a standby
// backend). The plan itself stays an immutable snapshot.
func (p *NetworkPlan) Source() *Network { return p.src }

// Stale reports whether the plan's compiled artifacts no longer match the
// source network or engine: a training step invalidated a convolution
// layer, or the engine configuration baked into a LayerPlan changed.
func (p *NetworkPlan) Stale() bool {
	for _, cs := range p.convs {
		if cs.c.planGen.Load() != cs.gen {
			return true
		}
	}
	for _, lp := range p.layerPlans {
		if lp.Stale() {
			return true
		}
	}
	return false
}

// Forward runs one compiled inference pass over an NCHW batch and returns
// the logits. The returned tensor is owned by the caller; intermediate
// activations come from and return to the plan's per-geometry buffer pool.
func (p *NetworkPlan) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if p.Stale() {
		return nil, fmt.Errorf("nn: %w: training or an engine config change invalidated the network plan; recompile with Network.Compile", ErrStalePlan)
	}
	if x.Rank() != 4 {
		return nil, fmt.Errorf("nn: %w: compiled forward wants NCHW input, got %v", ErrShapeMismatch, x.Shape)
	}
	if x.Shape[0] < 1 {
		return nil, fmt.Errorf("nn: %w: compiled forward wants a non-empty batch, got %v", ErrShapeMismatch, x.Shape)
	}
	if _, err := p.StepShapes(x.Shape[1], x.Shape[2], x.Shape[3]); err != nil {
		return nil, err
	}
	return p.runChain(p.steps, x, nil)
}

// EvaluateLogits runs one compiled forward pass and derives predictions,
// top-1/top-k correctness, and loss from the same logits.
func (p *NetworkPlan) EvaluateLogits(x *tensor.Tensor, labels []int, k int) (*EvalStats, error) {
	logits, err := p.Forward(x)
	if err != nil {
		return nil, err
	}
	return StatsFromLogits(logits, labels, k)
}

// StepShape records one compiled step's per-sample output geometry.
type StepShape struct {
	Step string
	// Out is the per-sample output shape (e.g. [C H W], or [C] after
	// pooling/dense steps).
	Out []int
}

// StepShapes returns the flattened step list with each step's per-sample
// output geometry for a (c, h, w) input sample, computing and caching the
// chain on first use per geometry.
func (p *NetworkPlan) StepShapes(c, h, w int) ([]StepShape, error) {
	key := geoKey{c, h, w}
	p.geoMu.Lock()
	defer p.geoMu.Unlock()
	if g, ok := p.geos[key]; ok {
		return g, nil
	}
	shapes := make([]StepShape, 0, len(p.steps))
	in := []int{c, h, w}
	for _, s := range p.steps {
		out, err := s.outShape(in)
		if err != nil {
			return nil, fmt.Errorf("nn: %s step on %v: %w", s.name(), in, err)
		}
		shapes = append(shapes, StepShape{Step: s.name(), Out: out})
		in = out
	}
	if p.geos == nil {
		p.geos = make(map[geoKey][]StepShape)
	}
	p.geos[key] = shapes
	return shapes, nil
}

// runChain executes a step chain over x, which the caller keeps: every
// step's output is a plan-owned buffer, so each intermediate returns to the
// pool as soon as the next step has consumed it, and the result is x itself
// only for an empty chain. A nil bc runs planned layers through
// LayerPlan.Conv2D; a batch context routes them through their batch-major
// path with its reserved call indices.
func (p *NetworkPlan) runChain(steps []planStep, x *tensor.Tensor, bc *batchCtx) (*tensor.Tensor, error) {
	cur := x
	for _, s := range steps {
		out, err := s.run(p, cur, cur != x, bc)
		if err != nil {
			return nil, err
		}
		if out != cur && cur != x {
			tensor.PutScratch(cur)
		}
		cur = out
	}
	return cur, nil
}

// newTensor returns a pooled tensor with unspecified contents; every step
// writes each output element, so no zeroing is needed. Scratch comes from
// the process-wide tensor pool so intermediates produced here and layer
// outputs produced by the engine recycle through the same free lists.
func (p *NetworkPlan) newTensor(shape ...int) *tensor.Tensor {
	return tensor.GetScratch(shape...)
}

// serial reports whether per-sample work will run inline on the caller's
// goroutine. Hot steps branch on it to call their sample body in a plain
// loop — the forSamples dispatch closure never materializes, keeping the
// single-worker steady state allocation-free.
func (p *NetworkPlan) serial(n int) bool {
	return n <= 1 || tensor.Workers(p.Parallelism) <= 1
}

// forSamples runs fn(b) for every sample index on the plan's worker pool.
// Callers keep items independent (disjoint output regions), so parallel
// output is bit-identical to serial.
func (p *NetworkPlan) forSamples(n int, fn func(b int) error) error {
	return tensor.ParallelFor(n, tensor.Workers(p.Parallelism), fn)
}

// compile lowers one module into plan steps, flattening Sequential chains.
func (p *NetworkPlan) compile(m Module) ([]planStep, error) {
	switch v := m.(type) {
	case *Sequential:
		var out []planStep
		for _, child := range v.Modules {
			steps, err := p.compile(child)
			if err != nil {
				return nil, err
			}
			out = append(out, steps...)
		}
		return out, nil
	case *Residual:
		body, err := p.compile(v.Body)
		if err != nil {
			return nil, err
		}
		var shortcut []planStep
		if v.Shortcut != nil {
			if shortcut, err = p.compile(v.Shortcut); err != nil {
				return nil, err
			}
		}
		return []planStep{&residualStep{body: body, shortcut: shortcut, hasShortcut: v.Shortcut != nil}}, nil
	case *Conv:
		p.convs = append(p.convs, convSnapshot{c: v, gen: v.planGen.Load()})
		if p.engine == nil {
			return []planStep{&convRefStep{c: v}}, nil
		}
		if planner := plannerFor(p.engine); planner != nil {
			lp, err := planner.PlanConv(v.Weight.W, v.Bias.W.Data, v.Stride, v.Pad)
			if err != nil {
				return nil, err
			}
			p.layerPlans = append(p.layerPlans, lp)
			step := &convPlanStep{c: v, plan: lp}
			if blp, ok := lp.(BatchLayerPlan); ok {
				step.batch = blp
				p.batchPlans = append(p.batchPlans, blp)
			}
			return []planStep{step}, nil
		}
		return []planStep{&convEngineStep{c: v, engine: p.engine}}, nil
	case *ReLULayer:
		return []planStep{reluStep{}}, nil
	case *MaxPool:
		return []planStep{&maxPoolStep{k: v.K, stride: v.Stride}}, nil
	case *GlobalAvgPool:
		return []planStep{gapStep{}}, nil
	case *DenseLayer:
		return []planStep{&denseStep{d: v}}, nil
	default:
		return nil, fmt.Errorf("no compiled step for module type %T", m)
	}
}

// planStep is one compiled inference operation over a whole batch.
type planStep interface {
	name() string
	// outShape maps a per-sample input shape to the step's per-sample
	// output shape.
	outShape(in []int) ([]int, error)
	// run executes the step. own reports whether the plan owns x; a step
	// may return x itself only when own is true and it ran in place, and
	// any other result is a plan-owned buffer disjoint from x. bc is the
	// batch context of a batch-major pass (nil runs per sample).
	run(p *NetworkPlan, x *tensor.Tensor, own bool, bc *batchCtx) (*tensor.Tensor, error)
}

// convRefOut returns the reference convolution's output size per spatial
// dimension (Same pads k-1 total, matching tensor.Im2Col/Conv2D).
func convRefOut(in, k, stride int, pad tensor.PadMode) int {
	total := 0
	if pad == tensor.Same {
		total = k - 1
	}
	return tensor.ConvOut(in, k, stride, total)
}

// convRefStep mirrors Conv.Forward's exact reference path (per-sample
// im2col + matmul + bias), parallel across samples into a pooled output —
// bit-identical to the module because each sample's arithmetic is
// unchanged and samples are independent.
type convRefStep struct {
	c *Conv
}

func (s *convRefStep) name() string { return "conv(reference)" }

func (s *convRefStep) outShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("conv wants a CHW sample, got %v", in)
	}
	c := s.c
	cout, k := c.Weight.W.Shape[0], c.Weight.W.Shape[2]
	if in[0] != c.Weight.W.Shape[1] {
		return nil, fmt.Errorf("channel mismatch %d vs %d", in[0], c.Weight.W.Shape[1])
	}
	oh := convRefOut(in[1], k, c.Stride, c.Pad)
	ow := convRefOut(in[2], k, c.Stride, c.Pad)
	if oh < 1 || ow < 1 {
		return nil, fmt.Errorf("empty conv output for %v k=%d", in, k)
	}
	return []int{cout, oh, ow}, nil
}

func (s *convRefStep) run(p *NetworkPlan, x *tensor.Tensor, _ bool, _ *batchCtx) (*tensor.Tensor, error) {
	c := s.c
	if x.Rank() != 4 {
		return nil, fmt.Errorf("nn: compiled conv wants NCHW input, got %v", x.Shape)
	}
	n, cin, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cout, k := c.Weight.W.Shape[0], c.Weight.W.Shape[2]
	oh := convRefOut(h, k, c.Stride, c.Pad)
	ow := convRefOut(w, k, c.Stride, c.Pad)
	wmat, err := c.Weight.W.Reshape(cout, cin*k*k)
	if err != nil {
		return nil, err
	}
	out := p.newTensor(n, cout, oh, ow)
	err = p.forSamples(n, func(b int) error {
		img := &tensor.Tensor{Shape: []int{cin, h, w}, Data: x.Data[b*cin*h*w : (b+1)*cin*h*w]}
		col, _, _, err := tensor.Im2Col(img, k, k, c.Stride, c.Pad)
		if err != nil {
			return err
		}
		prod, err := tensor.MatMul(wmat, col)
		if err != nil {
			return err
		}
		dst := out.Data[b*cout*oh*ow : (b+1)*cout*oh*ow]
		for oc := 0; oc < cout; oc++ {
			bias := c.Bias.W.Data[oc]
			src := prod.Data[oc*oh*ow : (oc+1)*oh*ow]
			for i, v := range src {
				dst[oc*oh*ow+i] = v + bias
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// convPlanStep runs a convolution through its eagerly compiled LayerPlan —
// the same call Conv.Forward makes through its lazy plan cache, minus the
// cache lookup. batch is the plan's batch-major extension when it offers
// one (ForwardBatch routes through it).
type convPlanStep struct {
	c     *Conv
	plan  LayerPlan
	batch BatchLayerPlan
}

func (s *convPlanStep) name() string { return "conv(planned)" }

func (s *convPlanStep) outShape(in []int) ([]int, error) { return (&convRefStep{c: s.c}).outShape(in) }

func (s *convPlanStep) run(_ *NetworkPlan, x *tensor.Tensor, _ bool, bc *batchCtx) (*tensor.Tensor, error) {
	if bc == nil {
		return s.plan.Conv2D(x)
	}
	first := bc.base + bc.next + 1
	bc.next++
	return s.batch.ForwardBatchCalls(x, first, bc.stride)
}

// convEngineStep runs a convolution through a non-planning engine, exactly
// as Conv.Forward does for engines without PlanConv.
type convEngineStep struct {
	c      *Conv
	engine ConvEngine
}

func (s *convEngineStep) name() string { return "conv(" + s.engine.Name() + ")" }

func (s *convEngineStep) outShape(in []int) ([]int, error) {
	return (&convRefStep{c: s.c}).outShape(in)
}

func (s *convEngineStep) run(_ *NetworkPlan, x *tensor.Tensor, _ bool, _ *batchCtx) (*tensor.Tensor, error) {
	c := s.c
	return s.engine.Conv2D(x, c.Weight.W, c.Bias.W.Data, c.Stride, c.Pad)
}

// reluStep clamps negatives — in place when the plan owns the buffer,
// otherwise streaming into a pooled copy.
type reluStep struct{}

func (reluStep) name() string { return "relu" }

func (reluStep) outShape(in []int) ([]int, error) { return in, nil }

func (reluStep) run(p *NetworkPlan, x *tensor.Tensor, own bool, _ *batchCtx) (*tensor.Tensor, error) {
	out := x
	if !own {
		out = p.newTensor(x.Shape...)
	}
	n := x.Shape[0]
	per := len(x.Data) / n
	if p.serial(n) {
		for b := 0; b < n; b++ {
			reluSample(x, out, b, per)
		}
		return out, nil
	}
	return out, p.forSamples(n, func(b int) error {
		reluSample(x, out, b, per)
		return nil
	})
}

func reluSample(x, out *tensor.Tensor, b, per int) {
	src := x.Data[b*per : (b+1)*per]
	dst := out.Data[b*per : (b+1)*per]
	for i, v := range src {
		dst[i] = relu(v)
	}
}

// relu is `if v < 0 { v = 0 }` without the branch that random signs
// mispredict. v < 0 exactly when v's bits lie in [0x8000000000000001,
// 0xfff0000000000000] (negative subnormals through -Inf): one unsigned
// range test, whose borrow clears the bits to +0. -0, positive values and
// every NaN lie outside the range and pass unchanged.
func relu(v float64) float64 {
	u := math.Float64bits(v)
	_, neg := bits.Sub64(u-(1<<63+1), 0x7ff0000000000000, 0)
	return math.Float64frombits(u &^ -neg)
}

// maxSel is `if a > v { v = a }; return v` as a select on the bits, which
// compiles to a conditional move instead of a branch that post-ReLU data
// mispredicts.
func maxSel(v, a float64) float64 {
	m := uint64(0)
	if a > v {
		m = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(v)&^m | math.Float64bits(a)&m)
}

// maxPoolStep mirrors MaxPool.Forward's inference loops per sample.
type maxPoolStep struct {
	k, stride int
}

func (s *maxPoolStep) name() string { return "maxpool" }

func (s *maxPoolStep) outShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("maxpool wants a CHW sample, got %v", in)
	}
	oh := (in[1]-s.k)/s.stride + 1
	ow := (in[2]-s.k)/s.stride + 1
	if oh < 1 || ow < 1 {
		return nil, fmt.Errorf("empty maxpool output for %v k=%d", in, s.k)
	}
	return []int{in[0], oh, ow}, nil
}

func (s *maxPoolStep) run(p *NetworkPlan, x *tensor.Tensor, _ bool, _ *batchCtx) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("nn: compiled maxpool wants NCHW, got %v", x.Shape)
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-s.k)/s.stride + 1
	ow := (w-s.k)/s.stride + 1
	if oh < 1 || ow < 1 {
		return nil, fmt.Errorf("nn: compiled maxpool empty output for %v", x.Shape)
	}
	out := p.newTensor(n, c, oh, ow)
	if p.serial(n) {
		for b := 0; b < n; b++ {
			s.sample(x, out, b, c, h, w, oh, ow)
		}
		return out, nil
	}
	return out, p.forSamples(n, func(b int) error {
		s.sample(x, out, b, c, h, w, oh, ow)
		return nil
	})
}

// sample runs the pooling window loops of one batch sample.
func (s *maxPoolStep) sample(x, out *tensor.Tensor, b, c, h, w, oh, ow int) {
	for ch := 0; ch < c; ch++ {
		inBase := (b*c + ch) * h * w
		outBase := (b*c + ch) * oh * ow
		if s.k == 2 && s.stride == 2 {
			// The ubiquitous 2x2/2 window: two source rows per output
			// row, four comparisons per element, no window loops. The
			// running max seeds at -Inf exactly like the generic loop,
			// so the selected values are identical (incl. NaN inputs).
			for oy := 0; oy < oh; oy++ {
				r0 := x.Data[inBase+2*oy*w:][:w]
				r1 := x.Data[inBase+(2*oy+1)*w:][:w]
				dst := out.Data[outBase+oy*ow:][:ow]
				for ox := range dst {
					v := maxSel(math.Inf(-1), r0[2*ox])
					v = maxSel(v, r0[2*ox+1])
					v = maxSel(v, r1[2*ox])
					dst[ox] = maxSel(v, r1[2*ox+1])
				}
			}
			continue
		}
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := math.Inf(-1)
				for ky := 0; ky < s.k; ky++ {
					row := inBase + (oy*s.stride+ky)*w + ox*s.stride
					for kx := 0; kx < s.k; kx++ {
						if v := x.Data[row+kx]; v > best {
							best = v
						}
					}
				}
				out.Data[outBase+oy*ow+ox] = best
			}
		}
	}
}

// gapStep mirrors tensor.GlobalAvgPool2D per sample.
type gapStep struct{}

func (gapStep) name() string { return "globalavgpool" }

func (gapStep) outShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("globalavgpool wants a CHW sample, got %v", in)
	}
	return []int{in[0]}, nil
}

func (gapStep) run(p *NetworkPlan, x *tensor.Tensor, _ bool, _ *batchCtx) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("nn: compiled globalavgpool wants NCHW, got %v", x.Shape)
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := p.newTensor(n, c)
	area := float64(h * w)
	if p.serial(n) {
		for b := 0; b < n; b++ {
			gapSample(x, out, b, c, h, w, area)
		}
		return out, nil
	}
	return out, p.forSamples(n, func(b int) error {
		gapSample(x, out, b, c, h, w, area)
		return nil
	})
}

func gapSample(x, out *tensor.Tensor, b, c, h, w int, area float64) {
	for ch := 0; ch < c; ch++ {
		base := (b*c + ch) * h * w
		var sum float64
		for i := 0; i < h*w; i++ {
			sum += x.Data[base+i]
		}
		out.Data[b*c+ch] = sum / area
	}
}

// denseStep mirrors DenseLayer.Forward (flatten + tensor.Dense arithmetic)
// per sample row.
type denseStep struct {
	d *DenseLayer
}

func (s *denseStep) name() string { return "dense" }

func (s *denseStep) outShape(in []int) ([]int, error) {
	size := 1
	for _, d := range in {
		size *= d
	}
	outDim, inDim := s.d.Weight.W.Shape[0], s.d.Weight.W.Shape[1]
	if size != inDim {
		return nil, fmt.Errorf("dense wants %d inputs, got %v", inDim, in)
	}
	return []int{outDim}, nil
}

func (s *denseStep) run(p *NetworkPlan, x *tensor.Tensor, _ bool, _ *batchCtx) (*tensor.Tensor, error) {
	n := x.Shape[0]
	in := x.Size() / n
	outDim, inW := s.d.Weight.W.Shape[0], s.d.Weight.W.Shape[1]
	if in != inW {
		return nil, fmt.Errorf("nn: compiled dense input dim %d != weight dim %d", in, inW)
	}
	weight, bias := s.d.Weight.W, s.d.Bias.W.Data
	out := p.newTensor(n, outDim)
	if p.serial(n) {
		for b := 0; b < n; b++ {
			denseSample(x, out, weight, bias, b, in, outDim)
		}
		return out, nil
	}
	return out, p.forSamples(n, func(b int) error {
		denseSample(x, out, weight, bias, b, in, outDim)
		return nil
	})
}

func denseSample(x, out, weight *tensor.Tensor, bias []float64, b, in, outDim int) {
	xrow := x.Data[b*in : (b+1)*in]
	for o := 0; o < outDim; o++ {
		wrow := weight.Data[o*in : (o+1)*in]
		sum := bias[o]
		for i, v := range xrow {
			sum += v * wrow[i]
		}
		out.Data[b*outDim+o] = sum
	}
}

// residualStep runs the compiled body and shortcut chains against the same
// input and sums them in place into the body output — the compiled form of
// Residual.Forward.
type residualStep struct {
	body        []planStep
	shortcut    []planStep
	hasShortcut bool
}

func (s *residualStep) name() string { return "residual" }

func (s *residualStep) outShape(in []int) ([]int, error) {
	cur := in
	var err error
	for _, st := range s.body {
		if cur, err = st.outShape(cur); err != nil {
			return nil, err
		}
	}
	return cur, nil
}

func (s *residualStep) run(p *NetworkPlan, x *tensor.Tensor, _ bool, bc *batchCtx) (*tensor.Tensor, error) {
	// Both chains read x, so neither may own it here; the outer runner
	// releases x after this step returns. The body runs before the
	// shortcut, the planned-layer order a per-sample pass keys its calls in.
	main, err := p.runChain(s.body, x, bc)
	if err != nil {
		return nil, err
	}
	side := x
	if s.hasShortcut {
		if side, err = p.runChain(s.shortcut, x, bc); err != nil {
			return nil, err
		}
	}
	if main == x {
		clone := p.newTensor(main.Shape...)
		copy(clone.Data, main.Data)
		main = clone
	}
	if err := main.AddInPlace(side); err != nil {
		return nil, fmt.Errorf("nn: residual shapes %v vs %v: %w", main.Shape, side.Shape, err)
	}
	if side != x {
		tensor.PutScratch(side)
	}
	return main, nil
}
