package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"photofourier/internal/tensor"
)

// numericGrad estimates dLoss/dTheta by central differences.
func numericGrad(f func() float64, theta *float64) float64 {
	const h = 1e-5
	orig := *theta
	*theta = orig + h
	lp := f()
	*theta = orig - h
	lm := f()
	*theta = orig
	return (lp - lm) / (2 * h)
}

func lossOf(t *testing.T, net *Network, x *tensor.Tensor, y []int) float64 {
	t.Helper()
	logits, err := net.Root.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	loss, _, err := SoftmaxCrossEntropy(logits, y)
	if err != nil {
		t.Fatal(err)
	}
	return loss
}

func checkGradients(t *testing.T, net *Network, x *tensor.Tensor, y []int, samples int) {
	t.Helper()
	net.ZeroGrad()
	if _, err := net.LossAndGrad(x, y); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, p := range net.Params() {
		for s := 0; s < samples; s++ {
			i := rng.Intn(p.W.Size())
			analytic := p.Grad.Data[i]
			numeric := numericGrad(func() float64 { return lossOf(t, net, x, y) }, &p.W.Data[i])
			tol := 1e-4 * (1 + math.Abs(numeric))
			if math.Abs(analytic-numeric) > tol {
				t.Fatalf("gradient mismatch at param shape %v idx %d: analytic %g numeric %g", p.W.Shape, i, analytic, numeric)
			}
		}
	}
}

func TestConvGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := &Network{Root: &Sequential{Modules: []Module{
		NewConv(2, 3, 3, 1, tensor.Same, rng),
		&ReLULayer{},
		&GlobalAvgPool{},
		NewDense(3, 4, rng),
	}}}
	x := tensor.New(2, 2, 6, 6)
	x.RandN(rng, 1)
	checkGradients(t, net, x, []int{1, 3}, 6)
}

func TestStridedConvGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := &Network{Root: &Sequential{Modules: []Module{
		NewConv(1, 2, 3, 2, tensor.Same, rng),
		&GlobalAvgPool{},
		NewDense(2, 3, rng),
	}}}
	x := tensor.New(1, 1, 8, 8)
	x.RandN(rng, 1)
	checkGradients(t, net, x, []int{2}, 6)
}

func TestMaxPoolGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := &Network{Root: &Sequential{Modules: []Module{
		NewConv(1, 2, 3, 1, tensor.Same, rng),
		&MaxPool{K: 2, Stride: 2},
		&GlobalAvgPool{},
		NewDense(2, 3, rng),
	}}}
	x := tensor.New(1, 1, 8, 8)
	x.RandN(rng, 1)
	checkGradients(t, net, x, []int{0}, 6)
}

func TestResidualGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	body := &Sequential{Modules: []Module{
		NewConv(2, 4, 3, 2, tensor.Same, rng),
		&ReLULayer{},
		NewConv(4, 4, 3, 1, tensor.Same, rng),
	}}
	net := &Network{Root: &Sequential{Modules: []Module{
		&Residual{Body: body, Shortcut: NewConv(2, 4, 1, 2, tensor.Same, rng)},
		&ReLULayer{},
		&GlobalAvgPool{},
		NewDense(4, 3, rng),
	}}}
	x := tensor.New(1, 2, 8, 8)
	x.RandN(rng, 1)
	checkGradients(t, net, x, []int{1}, 5)
}

func TestIdentityResidualGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	body := &Sequential{Modules: []Module{
		NewConv(3, 3, 3, 1, tensor.Same, rng),
	}}
	net := &Network{Root: &Sequential{Modules: []Module{
		&Residual{Body: body},
		&GlobalAvgPool{},
		NewDense(3, 2, rng),
	}}}
	x := tensor.New(1, 3, 5, 5)
	x.RandN(rng, 1)
	checkGradients(t, net, x, []int{1}, 4)
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits give loss log(C).
	logits := tensor.New(1, 4)
	loss, grad, err := SoftmaxCrossEntropy(logits, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Errorf("uniform loss = %g, want log 4", loss)
	}
	// Gradient sums to zero per row.
	var sum float64
	for _, v := range grad.Data {
		sum += v
	}
	if math.Abs(sum) > 1e-12 {
		t.Errorf("grad sum = %g", sum)
	}
}

func TestSoftmaxCrossEntropyErrors(t *testing.T) {
	x := tensor.New(2, 3)
	if _, _, err := SoftmaxCrossEntropy(x, []int{0}); err == nil {
		t.Error("label count mismatch should fail")
	}
	if _, _, err := SoftmaxCrossEntropy(x, []int{0, 5}); err == nil {
		t.Error("out-of-range label should fail")
	}
	bad := tensor.New(6)
	if _, _, err := SoftmaxCrossEntropy(bad, []int{0}); err == nil {
		t.Error("rank-1 logits should fail")
	}
}

func TestBackwardBeforeForwardFails(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := tensor.New(1, 2, 4, 4)
	if _, err := NewConv(2, 2, 3, 1, tensor.Same, rng).Backward(g); err == nil {
		t.Error("Conv")
	}
	if _, err := (&ReLULayer{}).Backward(g); err == nil {
		t.Error("ReLU")
	}
	if _, err := (&MaxPool{K: 2, Stride: 2}).Backward(g); err == nil {
		t.Error("MaxPool")
	}
	if _, err := (&GlobalAvgPool{}).Backward(tensor.New(1, 2)); err == nil {
		t.Error("GlobalAvgPool")
	}
	if _, err := NewDense(4, 2, rng).Backward(tensor.New(1, 2)); err == nil {
		t.Error("Dense")
	}
}

type engineStub struct{ calls int }

func (e *engineStub) Conv2D(input, weight *tensor.Tensor, bias []float64, stride int, pad tensor.PadMode) (*tensor.Tensor, error) {
	e.calls++
	return tensor.Conv2D(input, weight, bias, stride, pad)
}
func (e *engineStub) Name() string { return "stub" }

func TestSetConvEngineRoutesInference(t *testing.T) {
	net := ResNetS([3]int{4, 8, 8}, 10, 1)
	stub := &engineStub{}
	net.SetConvEngine(stub)
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(8)), 1)
	if _, err := net.Forward(x); err != nil {
		t.Fatal(err)
	}
	// ResNet-s: stem + 3 stages x (2 body convs) + 2 shortcut convs = 9.
	if stub.calls != 9 {
		t.Errorf("engine saw %d conv calls, want 9", stub.calls)
	}
	// Training ignores the engine (exact path).
	stub.calls = 0
	net.ZeroGrad()
	if _, err := net.LossAndGrad(x, []int{0}); err != nil {
		t.Fatal(err)
	}
	if stub.calls != 0 {
		t.Errorf("training path should not use the inference engine, saw %d calls", stub.calls)
	}
}

func TestEngineEquivalenceReferencePath(t *testing.T) {
	// With the reference engine explicitly set, inference matches the
	// engine-less forward exactly.
	net := ResNetS([3]int{4, 8, 8}, 10, 2)
	x := tensor.New(2, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(9)), 1)
	base, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	net.SetConvEngine(ReferenceEngine{})
	withEngine, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.RelativeError(withEngine, base) > 1e-12 {
		t.Error("reference engine should be bit-identical to the default path")
	}
}

func TestTopKCorrect(t *testing.T) {
	net := &Network{Root: &Sequential{Modules: []Module{&identity{}}}}
	x, _ := tensor.FromSlice([]float64{0.1, 0.9, 0.5, 0.3}, 1, 4)
	top1, err := net.TopKCorrect(x, []int{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if top1[0] {
		t.Error("class 2 is not the top-1")
	}
	top2, err := net.TopKCorrect(x, []int{2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !top2[0] {
		t.Error("class 2 is within top-2")
	}
	pred, err := net.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if pred[0] != 1 {
		t.Errorf("Predict = %d, want 1", pred[0])
	}
}

type identity struct{}

func (identity) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) { return x, nil }
func (identity) Backward(g *tensor.Tensor) (*tensor.Tensor, error)            { return g, nil }
func (identity) Params() []*Param                                             { return nil }

// TestCompileRejectsUnknownModule: Compile lowers only the module types it
// knows and refuses any other, naming its type, instead of running it
// through the module's own Forward.
func TestCompileRejectsUnknownModule(t *testing.T) {
	net := &Network{Name: "opaque", Root: &Sequential{Modules: []Module{&identity{}}}}
	_, err := net.Compile(nil)
	if err == nil {
		t.Fatal("compiling a network that holds an unknown module type succeeded")
	}
	if !strings.Contains(err.Error(), "nn.identity") {
		t.Errorf("error %q does not name the module type", err)
	}
}

func TestNumParams(t *testing.T) {
	net := SmallCNN([2]int{4, 8}, 10, 3)
	want := 3*4*9 + 4 + 4*8*9 + 8 + 8*10 + 10
	if got := net.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
}

func TestNetworkBuildersForwardShapes(t *testing.T) {
	x := tensor.New(2, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(10)), 1)
	for _, net := range []*Network{
		ResNetS([3]int{4, 8, 8}, 10, 1),
		SmallCNN([2]int{4, 8}, 10, 1),
		AlexNetS(10, 1),
	} {
		out, err := net.Forward(x)
		if err != nil {
			t.Fatalf("%s: %v", net.Name, err)
		}
		if out.Shape[0] != 2 || out.Shape[1] != 10 {
			t.Errorf("%s: output shape %v, want [2 10]", net.Name, out.Shape)
		}
	}
}

// TestReluMatchesBranch checks the branch-free relu against `if v < 0 {
// v = 0 }`, and the max-pool's maxSel against `if a > v { v = a }`, bit
// for bit on the edges of the float64 line: both zeros, both infinities,
// quiet and signalling NaNs of either sign and several payloads, the
// subnormal and normal boundaries on both sides, and random bit patterns.
func TestReluMatchesBranch(t *testing.T) {
	ref := func(v float64) float64 {
		if v < 0 {
			v = 0
		}
		return v
	}
	edges := []uint64{
		0, 1 << 63, // +0, -0
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000000, 0xfff8000000000000, 0x7ff0000000000001, 0xfff0000000000001,
		0x7fffffffffffffff, 0xffffffffffffffff, 0x7ff4000000000abc, 0xfff4000000000abc, // NaNs
		1, 1<<63 | 1, 0x000fffffffffffff, 0x800fffffffffffff, // subnormals
		0x0010000000000000, 0x8010000000000000, 0x7fefffffffffffff, 0xffefffffffffffff, // normal limits
		0x3ff0000000000000, 0xbff0000000000000, // ±1
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		edges = append(edges, rng.Uint64())
	}
	for _, u := range edges {
		v := math.Float64frombits(u)
		if got, want := math.Float64bits(relu(v)), math.Float64bits(ref(v)); got != want {
			t.Errorf("relu(%#016x) = %#016x, branch gives %#016x", u, got, want)
		}
	}
	// maxSel against `if a > v { v = a }` over every ordered pair of the
	// edge values (the random tail thinned to keep the pairs few).
	maxRef := func(v, a float64) float64 {
		if a > v {
			v = a
		}
		return v
	}
	pairs := edges[:len(edges)-10000+200]
	for _, uv := range pairs {
		for _, ua := range pairs {
			v, a := math.Float64frombits(uv), math.Float64frombits(ua)
			if got, want := math.Float64bits(maxSel(v, a)), math.Float64bits(maxRef(v, a)); got != want {
				t.Errorf("maxSel(%#016x, %#016x) = %#016x, branch gives %#016x", uv, ua, got, want)
			}
		}
	}
}
