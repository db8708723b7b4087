package core

// Channel-range execution: BeginBatchRange/Finish over disjoint output
// channel ranges, stitched back together, must reproduce ForwardBatchCalls
// bit for bit — same quantization, same combined ADC scales, same keyed
// readout substream positions — on the direct and tiled paths, with and
// without noise, per-channel detection, strided decimation, and
// elementwise faults.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"photofourier/internal/fault"
	"photofourier/internal/jtc"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

type rangeCase struct {
	name                          string
	n, cin, cout, h, w, k, stride int
	pad                           tensor.PadMode
	bias                          bool
	tune                          func(e *Engine)
}

func rangeCases() []rangeCase {
	return []rangeCase{
		{name: "direct", n: 3, cin: 3, cout: 8, h: 12, w: 12, k: 3, stride: 1, pad: tensor.Same,
			tune: func(e *Engine) {}},
		{name: "direct-noisy", n: 4, cin: 3, cout: 6, h: 10, w: 10, k: 3, stride: 1, pad: tensor.Valid, bias: true,
			tune: func(e *Engine) { e.ReadoutNoise = 0.01 }},
		{name: "direct-perchannel", n: 2, cin: 4, cout: 5, h: 9, w: 9, k: 3, stride: 1, pad: tensor.Same,
			tune: func(e *Engine) { e.Detector = jtc.NewSquareLawDetector(0, 0) }},
		{name: "direct-strided-noisy", n: 3, cin: 3, cout: 7, h: 11, w: 11, k: 5, stride: 2, pad: tensor.Same, bias: true,
			tune: func(e *Engine) { e.ReadoutNoise = 0.005; e.NTA = 2 }},
		{name: "tiled", n: 3, cin: 3, cout: 6, h: 12, w: 12, k: 3, stride: 1, pad: tensor.Same, bias: true,
			tune: func(e *Engine) { e.UseTiledPath = true; e.NConv = 128 }},
		{name: "tiled-noisy", n: 4, cin: 2, cout: 5, h: 10, w: 14, k: 3, stride: 1, pad: tensor.Valid,
			tune: func(e *Engine) { e.UseTiledPath = true; e.NConv = 64; e.ReadoutNoise = 0.01 }},
		{name: "direct-drift-stuck", n: 3, cin: 3, cout: 6, h: 10, w: 10, k: 3, stride: 1, pad: tensor.Same, bias: true,
			tune: func(e *Engine) {
				inj, err := fault.Parse("drift:1e-3;probe:2;stuckbit:5", 11)
				if err != nil {
					panic(err)
				}
				e.Faults = inj
			}},
		// cin 5 at NTA 2: operating groups of 2+2+1 channels, each summed in
		// the frequency domain, in every tiling regime.
		{name: "tiled-groups", n: 3, cin: 5, cout: 6, h: 12, w: 12, k: 3, stride: 1, pad: tensor.Same, bias: true,
			tune: func(e *Engine) { e.UseTiledPath = true; e.NConv = 128; e.NTA = 2 }},
		{name: "tiled-groups-partial-noisy", n: 2, cin: 5, cout: 5, h: 10, w: 16, k: 3, stride: 1, pad: tensor.Valid,
			tune: func(e *Engine) { e.UseTiledPath = true; e.NConv = 40; e.NTA = 2; e.ReadoutNoise = 0.01 }},
		{name: "tiled-groups-partitioned-noisy", n: 2, cin: 5, cout: 4, h: 6, w: 20, k: 3, stride: 2, pad: tensor.Same, bias: true,
			tune: func(e *Engine) { e.UseTiledPath = true; e.NConv = 12; e.NTA = 2; e.ReadoutNoise = 0.005 }},
		{name: "tiled-groups-drift-stuck", n: 3, cin: 5, cout: 6, h: 10, w: 10, k: 3, stride: 1, pad: tensor.Same,
			tune: func(e *Engine) {
				inj, err := fault.Parse("drift:1e-3;probe:2;stuckbit:5", 11)
				if err != nil {
					panic(err)
				}
				e.Faults = inj
				e.UseTiledPath = true
				e.NConv = 128
				e.NTA = 2
			}},
	}
}

func rangeSplits(cout, parts int) [][2]int {
	out := make([][2]int, 0, parts)
	lo := 0
	for d := 0; d < parts; d++ {
		hi := lo + (cout-lo)/(parts-d)
		if hi > lo {
			out = append(out, [2]int{lo, hi})
		}
		lo = hi
	}
	return out
}

func TestChannelRangeBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range rangeCases() {
		x := tensor.New(tc.n, tc.cin, tc.h, tc.w)
		x.RandN(rng, 1)
		w := tensor.New(tc.cout, tc.cin, tc.k, tc.k)
		w.RandN(rng, 0.5)
		var bias []float64
		if tc.bias {
			bias = make([]float64, tc.cout)
			for i := range bias {
				bias[i] = rng.NormFloat64()
			}
		}
		for _, parts := range []int{1, 2, 3} {
			checkRangeStitch(t, fmt.Sprintf("%s split into %d ranges", tc.name, parts), x, w, bias, tc.stride, tc.pad, tc.tune, rangeSplits(tc.cout, parts))
		}
	}
}

// checkRangeStitch runs x through one fresh plan of w per output channel
// range of splits, stitches the ranges back together and requires the
// result to equal ForwardBatchCalls on another fresh plan bit for bit.
// tune configures each plan's engine.
func checkRangeStitch(t *testing.T, what string, x, w *tensor.Tensor, bias []float64, stride int, pad tensor.PadMode, tune func(e *Engine), splits [][2]int) {
	t.Helper()
	mk := func() *LayerPlan {
		e := NewEngine()
		e.Parallelism = 4
		tune(e)
		p, err := e.PlanConv(w, bias, stride, pad)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return p.(*LayerPlan)
	}
	n, cout := x.Shape[0], w.Shape[0]
	ref := mk()
	first := ref.ReserveCalls(uint64(n)) + 1
	want, err := ref.ForwardBatchCalls(x, first, 1)
	if err != nil {
		t.Fatalf("%s: full batch: %v", what, err)
	}
	runs := make([]nn.ChannelRangeRun, len(splits))
	maxima := make([]nn.RangeMaxima, len(splits))
	for i, sp := range splits {
		run, err := mk().BeginBatchRange(x, sp[0], sp[1], first, 1)
		if err != nil {
			t.Fatalf("%s: begin [%d,%d): %v", what, sp[0], sp[1], err)
		}
		runs[i] = run
		maxima[i] = run.Maxima()
	}
	scales, err := nn.CombineRangeScales(maxima)
	if err != nil {
		t.Fatalf("%s: combine: %v", what, err)
	}
	got := tensor.New(want.Shape...)
	oh, ow := want.Shape[2], want.Shape[3]
	for i, sp := range splits {
		part, err := runs[i].Finish(scales)
		if err != nil {
			t.Fatalf("%s: finish [%d,%d): %v", what, sp[0], sp[1], err)
		}
		rc := sp[1] - sp[0]
		for b := 0; b < n; b++ {
			dst := got.Data[(b*cout+sp[0])*oh*ow : (b*cout+sp[1])*oh*ow]
			copy(dst, part.Data[b*rc*oh*ow:(b+1)*rc*oh*ow])
		}
		tensor.PutScratch(part)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: elem %d: %v != %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// FuzzChannelRange checks range ≡ full layer over generated layers and
// random cuts: cout 1 to 12 cut after any subset of its channels, cin 1 to
// 6 at NTA 1 to 4 (ragged groups included), inputs up to 8x8 in batches of
// 1 to 3, kernel 1 or 3, Same or Valid padding, stride 1 or 2, the direct
// or the tiled path (aperture 4 to 64, so every tiling regime), with or
// without readout noise. The stitched BeginBatchRange/Finish ranges must
// equal ForwardBatchCalls bit for bit.
func FuzzChannelRange(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(5), uint8(2), uint8(3), uint8(8), uint8(8), uint8(40), uint8(0), uint16(0b100100), true, true)
	f.Add(int64(2), uint8(12), uint8(3), uint8(1), uint8(2), uint8(6), uint8(7), uint8(5), uint8(3), uint16(0xFFF), true, false)
	f.Add(int64(3), uint8(1), uint8(4), uint8(4), uint8(1), uint8(3), uint8(5), uint8(20), uint8(1), uint16(0), false, true)
	f.Add(int64(4), uint8(7), uint8(6), uint8(4), uint8(3), uint8(8), uint8(8), uint8(12), uint8(2), uint16(0b1010), true, true)
	f.Fuzz(func(t *testing.T, seed int64, cout, cin, nta, n, h, w, nconv, shape uint8, cuts uint16, tiled, noisy bool) {
		co := 1 + int(cout)%12
		ci := 1 + int(cin)%6
		depth := 1 + int(nta)%4
		k := 1 + 2*int(shape&1)
		pad := tensor.Same
		if shape&2 != 0 {
			pad = tensor.Valid
		}
		stride := 1 + int(shape>>2&1)
		hh, ww := k+int(h)%(9-k), k+int(w)%(9-k)
		aperture := 4 + int(nconv)%61
		var splits [][2]int
		lo := 0
		for c := 1; c <= co; c++ {
			if c == co || cuts>>(c-1)&1 != 0 {
				splits = append(splits, [2]int{lo, c})
				lo = c
			}
		}
		rng := rand.New(rand.NewSource(seed))
		x := tensor.New(1+int(n)%3, ci, hh, ww)
		x.RandN(rng, 1)
		wt := tensor.New(co, ci, k, k)
		wt.RandN(rng, 0.5)
		bias := make([]float64, co)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		tune := func(e *Engine) {
			e.NTA = depth
			e.UseTiledPath = tiled
			e.NConv = aperture
			if noisy {
				e.ReadoutNoise = 0.01
			}
		}
		what := fmt.Sprintf("x %v w %v stride %d pad %v nta %d tiled %v aperture %d noisy %v ranges %v", x.Shape, wt.Shape, stride, pad, depth, tiled, aperture, noisy, splits)
		checkRangeStitch(t, what, x, wt, bias, stride, pad, tune, splits)
	})
}

// TestChannelRangeRejections: configurations whose calibration or fault
// handling cannot decompose over channel ranges must refuse up front
// rather than silently diverge from single-engine execution.
func TestChannelRangeRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(2, 3, 8, 8)
	x.RandN(rng, 1)
	w := tensor.New(4, 3, 3, 3)
	w.RandN(rng, 0.5)
	plan := func(tune func(e *Engine)) *LayerPlan {
		e := NewEngine()
		tune(e)
		p, err := e.PlanConv(w, nil, 1, tensor.Same)
		if err != nil {
			t.Fatal(err)
		}
		return p.(*LayerPlan)
	}
	if _, err := plan(func(e *Engine) { e.ADCCalibPercentile = 0.99 }).BeginBatchRange(x, 0, 2, 1, 1); err == nil {
		t.Fatal("percentile calibration must reject channel-range execution")
	}
	if _, err := plan(func(e *Engine) {
		inj, err := fault.Parse("shot:0.1", 3)
		if err != nil {
			t.Fatal(err)
		}
		e.Faults = inj
	}).BeginBatchRange(x, 0, 2, 1, 1); err == nil {
		t.Fatal("shot-fault guard must reject channel-range execution")
	}
	lp := plan(func(e *Engine) {})
	for _, r := range [][2]int{{-1, 2}, {2, 2}, {0, 5}, {3, 1}} {
		if _, err := lp.BeginBatchRange(x, r[0], r[1], 1, 1); err == nil {
			t.Fatalf("range [%d,%d) must be rejected", r[0], r[1])
		}
	}
}
