package core

// Batch-major LayerPlan execution: ForwardBatchCalls must reproduce the
// per-sample planned path bit for bit — per-sample quantization scales,
// per-sample ADC calibration, per-sample keyed readout substreams — on both
// the direct and the tiled path. On the tiled path every planned run counts
// the packed schedule of the samples it carries, so a one-sample batch
// counts what Conv2D of that sample counts, and a batch beats the sum of
// its samples exactly where the aperture has slack across samples.

import (
	"math/rand"
	"testing"

	"photofourier/internal/fault"
	"photofourier/internal/jtc"
	"photofourier/internal/tensor"
)

// percentileCalib and shotFaults are the batch tables' engine tunings for
// the two settings a channel range refuses but a full-range run keeps.
func percentileCalib(e *Engine) { e.ADCCalibPercentile = 0.95 }

func shotFaults(e *Engine) {
	inj, err := fault.Parse("shot:0.1", 13)
	if err != nil {
		panic(err)
	}
	e.Faults = inj
}

// nta2 and nta2ShotFaults run a layer in operating groups of two channels,
// the second with shot faults too.
func nta2(e *Engine) { e.NTA = 2 }

func nta2ShotFaults(e *Engine) {
	shotFaults(e)
	e.NTA = 2
}

// nonNegSample0 replaces sample 0 by its absolute values, so that sample
// lacks the negative part the rest of the batch carries.
func nonNegSample0(x *tensor.Tensor) {
	per := x.Size() / x.Shape[0]
	for i, v := range x.Data[:per] {
		if v < 0 {
			x.Data[i] = -v
		}
	}
}

func TestForwardBatchCallsDirectBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, tc := range []struct {
		n, cin, cout, h, w, k, stride int
		pad                           tensor.PadMode
		noise                         float64
		nonNeg0                       bool
		tune                          func(e *Engine)
	}{
		{3, 3, 8, 16, 16, 3, 1, tensor.Same, 0, false, nil},
		{8, 5, 4, 12, 10, 3, 1, tensor.Valid, 0, false, nil},
		{4, 3, 6, 9, 9, 5, 2, tensor.Same, 0.01, false, nil},
		{1, 2, 3, 8, 8, 1, 1, tensor.Same, 0.005, false, nil},
		{3, 2, 4, 12, 12, 7, 1, tensor.Same, 0, false, nil},             // k > 5: heap tap scratch per worker
		{2, 3, 5, 10, 10, 3, 1, tensor.Same, 0.01, true, nil},           // sample 0 lacks the negative part
		{3, 4, 6, 10, 10, 3, 1, tensor.Same, 0, false, percentileCalib}, // quantile ADC calibration
		{4, 4, 5, 10, 10, 3, 2, tensor.Same, 0.005, false, shotFaults},  // guarded, retried misfires
	} {
		x := tensor.New(tc.n, tc.cin, tc.h, tc.w)
		x.RandN(rng, 1)
		if tc.nonNeg0 {
			nonNegSample0(x)
		}
		w := tensor.New(tc.cout, tc.cin, tc.k, tc.k)
		w.RandN(rng, 0.5)
		bias := make([]float64, tc.cout)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		mk := func() *Engine {
			e := NewEngine()
			e.ReadoutNoise = tc.noise
			e.Parallelism = 4 // exercise the worker pool even on 1-CPU hosts
			if tc.tune != nil {
				tc.tune(e)
			}
			return e
		}
		eA, eB := mk(), mk()
		pA, err := eA.PlanConv(w, bias, tc.stride, tc.pad)
		if err != nil {
			t.Fatal(err)
		}
		pB, err := eB.PlanConv(w, bias, tc.stride, tc.pad)
		if err != nil {
			t.Fatal(err)
		}
		lpA := pA.(*LayerPlan)
		lpB := pB.(*LayerPlan)
		// oracle: per-sample loop
		var want []float64
		for b := 0; b < tc.n; b++ {
			xb := &tensor.Tensor{Shape: []int{1, tc.cin, tc.h, tc.w}, Data: x.Data[b*tc.cin*tc.h*tc.w : (b+1)*tc.cin*tc.h*tc.w]}
			ob, err := lpA.Conv2D(xb)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ob.Data...)
		}
		first := lpB.ReserveCalls(uint64(tc.n)) + 1
		got, err := lpB.ForwardBatchCalls(x, first, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Data) != len(want) {
			t.Fatalf("size %d vs %d", len(got.Data), len(want))
		}
		for i := range want {
			if got.Data[i] != want[i] {
				t.Fatalf("case %+v: elem %d: %v != %v", tc, i, got.Data[i], want[i])
			}
		}
	}
}

func TestForwardBatchCallsTiledBitIdentityAndPacking(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		n, cin, cout, h, w, k, nconv int
		pad                          tensor.PadMode
		noise                        float64
		packs                        bool
		nonNeg0                      bool
		tune                         func(e *Engine)
	}{
		{3, 3, 4, 16, 16, 3, 256, tensor.Same, 0, true, false, nil},              // row tiling; leftover chunks pack
		{4, 2, 3, 12, 12, 3, 128, tensor.Valid, 0, true, false, nil},             // row tiling; flexible chunking packs
		{4, 2, 3, 10, 16, 3, 40, tensor.Valid, 0.01, false, false, nil},          // partial row tiling, OutH 8: short passes pair up within each sample
		{2, 2, 2, 6, 20, 3, 12, tensor.Valid, 0, false, false, nil},              // row partitioning: no slack
		{8, 3, 4, 16, 16, 3, 64, tensor.Same, 0.005, false, false, nil},          // full-aperture chunks: nothing to pack
		{2, 3, 4, 12, 12, 3, 128, tensor.Valid, 0.01, true, true, nil},           // sample 0 lacks the negative part
		{3, 4, 3, 12, 12, 3, 128, tensor.Valid, 0, true, false, percentileCalib}, // quantile ADC calibration
		{4, 4, 3, 12, 12, 3, 128, tensor.Valid, 0.005, true, false, shotFaults},  // guarded, retried misfires
		{4, 2, 3, 11, 16, 3, 40, tensor.Valid, 0.01, true, false, nil},           // partial row tiling, OutH 9: odd short-pass segments pair across samples
		// cin 5 at NTA 2: operating groups of 2+2+1 channels, each summed
		// in the frequency domain.
		{3, 5, 4, 16, 16, 3, 256, tensor.Same, 0, true, false, nta2},                // row tiling
		{4, 5, 3, 10, 16, 3, 40, tensor.Valid, 0.01, false, false, nta2},            // partial row tiling, readout noise
		{2, 5, 2, 6, 20, 3, 12, tensor.Valid, 0.005, false, true, nta2},             // row partitioning, readout noise, sample 0 lacks the negative part
		{4, 5, 3, 12, 12, 3, 128, tensor.Valid, 0.005, true, false, nta2ShotFaults}, // row tiling, guarded, retried misfires
		{9, 5, 2, 12, 12, 3, 128, tensor.Same, 0.005, false, false, nta2ShotFaults}, // more samples than one lockstep chunk; no two tail segments fit one aperture
	} {
		x := tensor.New(tc.n, tc.cin, tc.h, tc.w)
		x.RandN(rng, 1)
		if tc.nonNeg0 {
			nonNegSample0(x)
		}
		w := tensor.New(tc.cout, tc.cin, tc.k, tc.k)
		w.RandN(rng, 0.5)
		mk := func() *Engine {
			e := NewEngine()
			e.UseTiledPath = true
			e.NConv = tc.nconv
			e.ReadoutNoise = tc.noise
			if tc.tune != nil {
				tc.tune(e)
			}
			return e
		}
		plan := func() *LayerPlan {
			p, err := mk().PlanConv(w, nil, 1, tc.pad)
			if err != nil {
				t.Fatal(err)
			}
			return p.(*LayerPlan)
		}
		lpA, lpB, lpC := plan(), plan(), plan()
		var want []float64
		perSampleShots := int64(0)
		for b := 0; b < tc.n; b++ {
			xb := &tensor.Tensor{Shape: []int{1, tc.cin, tc.h, tc.w}, Data: x.Data[b*tc.cin*tc.h*tc.w : (b+1)*tc.cin*tc.h*tc.w]}
			shots0 := jtc.Shots()
			ob, err := lpA.Conv2D(xb)
			if err != nil {
				t.Fatal(err)
			}
			convShots := jtc.Shots() - shots0
			want = append(want, ob.Data...)
			perSampleShots += convShots
			// The same sample alone through the per-sample domain: one
			// counting rule, so the same bits and the same shots.
			shots0 = jtc.Shots()
			ob1, err := lpC.ForwardBatchCalls(xb, lpC.ReserveCalls(1)+1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := jtc.Shots() - shots0; got != convShots {
				t.Errorf("case %+v: sample %d: ForwardBatchCalls alone counts %d shots, Conv2D %d", tc, b, got, convShots)
			}
			assertBitIdentical(t, ob, ob1, "one-sample ForwardBatchCalls")
		}
		first := lpB.ReserveCalls(uint64(tc.n)) + 1
		shots1 := jtc.Shots()
		got, err := lpB.ForwardBatchCalls(x, first, 1)
		if err != nil {
			t.Fatal(err)
		}
		batchShots := jtc.Shots() - shots1
		for i := range want {
			if got.Data[i] != want[i] {
				t.Fatalf("case %+v: elem %d: %v != %v", tc, i, got.Data[i], want[i])
			}
		}
		t.Logf("case %+v: per-sample shots %d, packed batch shots %d", tc, perSampleShots, batchShots)
		if tc.packs && batchShots >= perSampleShots {
			t.Errorf("case %+v: packing bought nothing: %d vs %d", tc, batchShots, perSampleShots)
		}
		if !tc.packs && batchShots != perSampleShots {
			t.Errorf("case %+v: no slack across samples, yet the batch counts %d shots against %d", tc, batchShots, perSampleShots)
		}
	}
}

func benchLayer(b *testing.B, batchMajor bool, n, cin, cout, h, w, k int, relu bool) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(n, cin, h, w)
	x.RandN(rng, 1)
	if relu {
		for i, v := range x.Data {
			if v < 0 {
				x.Data[i] = 0
			}
		}
	}
	wt := tensor.New(cout, cin, k, k)
	wt.RandN(rng, 0.5)
	e := NewEngine()
	p, err := e.PlanConv(wt, nil, 1, tensor.Same)
	if err != nil {
		b.Fatal(err)
	}
	lp := p.(*LayerPlan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batchMajor {
			first := lp.ReserveCalls(uint64(n)) + 1
			if _, err := lp.ForwardBatchCalls(x, first, 1); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := lp.Conv2D(x); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkLayerBatchConv1PerBatchConv2D(b *testing.B) {
	benchLayer(b, false, 8, 3, 8, 32, 32, 3, false)
}
func BenchmarkLayerBatchConv1ForwardBatch(b *testing.B) {
	benchLayer(b, true, 8, 3, 8, 32, 32, 3, false)
}
func BenchmarkLayerBatchConv2PerBatchConv2D(b *testing.B) {
	benchLayer(b, false, 8, 8, 16, 16, 16, 3, true)
}
func BenchmarkLayerBatchConv2ForwardBatch(b *testing.B) {
	benchLayer(b, true, 8, 8, 16, 16, 16, 3, true)
}
