package core

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"photofourier/internal/jtc"
	"photofourier/internal/tensor"
	"photofourier/internal/tiling"
)

// planCase is one point of the planned-vs-unplanned golden matrix.
type planCase struct {
	name     string
	detector func() jtc.Detector
	nta      int
	adc, dac int
	pad      tensor.PadMode
	stride   int
	tiled    bool
	nconv    int // aperture: on 10x10 inputs 64 row-tiles, 24 partially row-tiles, 8 row-partitions
	readout  float64
	calibPct float64
}

func goldenCases() []planCase {
	lin := func() jtc.Detector { return jtc.NewLinearPowerDetector(0, 0, 0) }
	sq := func() jtc.Detector { return jtc.NewSquareLawDetector(0, 0) }
	noisyLin := func() jtc.Detector { return jtc.NewLinearPowerDetector(0.01, 0.005, 7) }
	return []planCase{
		{"default", lin, 16, 8, 8, tensor.Same, 1, false, 64, 0, 1},
		{"fp-psum", lin, 4, 0, 8, tensor.Same, 1, false, 64, 0, 1},
		{"fp-everything", lin, 4, 0, 0, tensor.Same, 1, false, 64, 0, 1},
		{"nta-1", lin, 1, 8, 8, tensor.Same, 1, false, 64, 0, 1},
		{"nta-3-ragged", lin, 3, 8, 8, tensor.Same, 1, false, 64, 0, 1},
		{"valid", lin, 4, 8, 8, tensor.Valid, 1, false, 64, 0, 1},
		{"strided", lin, 4, 8, 8, tensor.Same, 2, false, 64, 0, 1},
		{"valid-strided", lin, 4, 8, 8, tensor.Valid, 2, false, 64, 0, 1},
		{"narrow-adc-dac", lin, 4, 6, 4, tensor.Same, 1, false, 64, 0, 1},
		{"square-law", sq, 4, 8, 8, tensor.Same, 1, false, 64, 0, 1},
		{"square-law-nta1", sq, 1, 8, 0, tensor.Same, 1, false, 64, 0, 1},
		{"noisy-detector", noisyLin, 4, 8, 8, tensor.Same, 1, false, 64, 0, 1},
		{"readout-noise", lin, 4, 8, 8, tensor.Same, 1, false, 64, 0.01, 1},
		{"percentile-calib", lin, 4, 8, 8, tensor.Same, 1, false, 64, 0, 0.99},
		{"tiled", lin, 4, 8, 8, tensor.Same, 1, true, 64, 0, 1},
		{"tiled-valid", lin, 4, 8, 8, tensor.Valid, 1, true, 64, 0, 1},
		{"tiled-square-law", sq, 4, 8, 8, tensor.Same, 1, true, 64, 0, 1},
		{"tiled-readout-noise", lin, 4, 8, 8, tensor.Same, 1, true, 64, 0.005, 1},
		{"tiled-strided", lin, 4, 8, 8, tensor.Same, 2, true, 64, 0, 1},
		{"tiled-partial", lin, 4, 8, 8, tensor.Same, 1, true, 24, 0, 1},
		{"tiled-partial-valid", lin, 4, 8, 8, tensor.Valid, 1, true, 24, 0.005, 1},
		{"tiled-partitioned", lin, 4, 8, 8, tensor.Same, 1, true, 8, 0, 1},
	}
}

func (c planCase) engine(parallelism int) *Engine {
	e := NewEngine()
	e.NTA = c.nta
	e.ADCBits, e.DACBits = c.adc, c.dac
	e.Detector = c.detector()
	e.UseTiledPath = c.tiled
	e.NConv = c.nconv
	e.ReadoutNoise = c.readout
	e.ADCCalibPercentile = c.calibPct
	e.Parallelism = parallelism
	return e
}

// TestPlannedMatchesUnplanned is the golden equivalence matrix: for every
// detector encoding, NTA depth, ADC/DAC width, padding, stride, tiled
// routing, noise source, and worker count, Engine.Conv2D through a
// LayerPlan must be bit-identical to the unplanned path.
func TestPlannedMatchesUnplanned(t *testing.T) {
	in := tensor.New(2, 5, 10, 10)
	w := tensor.New(4, 5, 3, 3)
	fillDeterministic(in, 89, 0.35) // mixed-sign activations exercise all four cross terms
	fillDeterministic(w, 37, 0.4)
	bias := []float64{0.1, -0.2, 0.3, -0.4}
	workerCounts := []int{1, 4, runtime.NumCPU()}
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			// Separate engines keep the per-call noise substream counters
			// aligned between the two paths.
			want, err := tc.engine(1).Conv2D(in, w, bias, tc.stride, tc.pad)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range workerCounts {
				e := tc.engine(workers)
				plan, err := e.PlanConv(w, bias, tc.stride, tc.pad)
				if err != nil {
					t.Fatal(err)
				}
				got, err := plan.Conv2D(in)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, want, got, tc.name)
			}
		})
	}
}

// TestPlannedNonNegativeActivations covers the post-ReLU fast path (no
// negative activations → fewer cross terms, branch-free row adds), and the
// whole-call domain's edge case: in a batch whose sample 0 is non-negative
// and whose sample 1 has both signs, sample 0 still carries (zero) planes
// for the negative part, read out with noise from the whole-call stream.
func TestPlannedNonNegativeActivations(t *testing.T) {
	in := tensor.New(1, 6, 9, 9)
	w := tensor.New(3, 6, 3, 3)
	fillDeterministic(in, 71, 0) // non-negative
	fillDeterministic(w, 31, 0.5)
	mixed := tensor.New(2, 6, 9, 9)
	copy(mixed.Data, in.Data)
	fillDeterministic(&tensor.Tensor{Shape: []int{1, 6, 9, 9}, Data: mixed.Data[in.Size():]}, 71, 0.4)
	for _, tc := range []struct {
		in    *tensor.Tensor
		noise float64
	}{
		{in, 0},
		{mixed, 0.01},
	} {
		for _, tiled := range []bool{false, true} {
			e := NewEngine()
			e.NTA = 4
			e.NConv = 64
			e.UseTiledPath = tiled
			e.ReadoutNoise = tc.noise
			want, err := e.Conv2D(tc.in, w, nil, 1, tensor.Same)
			if err != nil {
				t.Fatal(err)
			}
			e2 := NewEngine()
			e2.NTA = 4
			e2.NConv = 64
			e2.UseTiledPath = tiled
			e2.ReadoutNoise = tc.noise
			plan, err := e2.PlanConv(w, nil, 1, tensor.Same)
			if err != nil {
				t.Fatal(err)
			}
			got, err := plan.Conv2D(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, want, got, "non-negative")
		}
	}
}

// TestPlannedRepeatedCallsMatchUnplannedSequence verifies the per-call
// noise substreams stay aligned across a sequence of calls on one engine —
// the repeated-batch serving pattern with readout noise enabled.
func TestPlannedRepeatedCallsMatchUnplannedSequence(t *testing.T) {
	in := tensor.New(1, 4, 8, 8)
	w := tensor.New(2, 4, 3, 3)
	fillDeterministic(in, 61, 0.3)
	fillDeterministic(w, 29, 0.4)
	mk := func() *Engine {
		e := NewEngine()
		e.NTA = 2
		e.ReadoutNoise = 0.01
		return e
	}
	eu, ep := mk(), mk()
	plan, err := ep.PlanConv(w, nil, 1, tensor.Same)
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 3; call++ {
		want, err := eu.Conv2D(in, w, nil, 1, tensor.Same)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Conv2D(in)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, want, got, "repeated-call")
	}
}

// TestLayerPlanSharedAcrossGoroutines hammers one LayerPlan from many
// goroutines (the serving pattern); under -race this proves the plan's
// lazy geometry cache and the pooled buffers are concurrency-safe.
func TestLayerPlanSharedAcrossGoroutines(t *testing.T) {
	in := tensor.New(1, 4, 12, 12)
	w := tensor.New(3, 4, 3, 3)
	fillDeterministic(in, 53, 0.3)
	fillDeterministic(w, 23, 0.45)
	for _, tiled := range []bool{false, true} {
		e := NewEngine()
		e.NTA = 2
		e.NConv = 64
		e.UseTiledPath = tiled
		plan, err := e.PlanConv(w, nil, 1, tensor.Same)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := plan.Conv2D(in)
		if err != nil {
			t.Fatal(err)
		}
		const goroutines = 8
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					out, err := plan.Conv2D(in)
					if err != nil {
						errs <- err
						return
					}
					for i := range out.Data {
						if out.Data[i] != ref.Data[i] {
							t.Errorf("concurrent planned Conv2D diverged at %d", i)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestEngineSharedAcrossGoroutinesTiled runs one Engine's unplanned tiled
// path from many goroutines at once; under -race this guards the hoisted
// long-lived inner RowTiledEngine against shared-state mutation.
func TestEngineSharedAcrossGoroutinesTiled(t *testing.T) {
	in := tensor.New(1, 3, 8, 8)
	w := tensor.New(2, 3, 3, 3)
	fillDeterministic(in, 43, 0.3)
	fillDeterministic(w, 13, 0.4)
	e := NewEngine()
	e.NTA = 2
	e.NConv = 64
	e.UseTiledPath = true
	ref, err := e.Conv2D(in, w, nil, 1, tensor.Same)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := e.Conv2D(in, w, nil, 1, tensor.Same)
			if err != nil {
				errs <- err
				return
			}
			for i := range out.Data {
				if out.Data[i] != ref.Data[i] {
					t.Errorf("concurrent tiled Conv2D diverged at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPlanKernelTransformsOncePerPlan is the shot-count assertion: a tiled
// LayerPlan transforms every kernel tile exactly once (at first use of the
// geometry), while the unplanned path re-transforms on every call.
func TestPlanKernelTransformsOncePerPlan(t *testing.T) {
	in := tensor.New(1, 4, 8, 8)
	w := tensor.New(2, 4, 3, 3)
	fillDeterministic(in, 47, 0.3)
	fillDeterministic(w, 19, 0.5)
	e := NewEngine()
	e.NTA = 2
	e.NConv = 64
	e.UseTiledPath = true
	plan, err := e.PlanConv(w, nil, 1, tensor.Same)
	if err != nil {
		t.Fatal(err)
	}
	before := tiling.KernelTileTransforms()
	if _, err := plan.Conv2D(in); err != nil {
		t.Fatal(err)
	}
	first := tiling.KernelTileTransforms() - before
	if first == 0 {
		t.Fatal("first planned call should build kernel-tile spectra")
	}
	for call := 0; call < 3; call++ {
		if _, err := plan.Conv2D(in); err != nil {
			t.Fatal(err)
		}
	}
	if d := tiling.KernelTileTransforms() - before - first; d != 0 {
		t.Errorf("planned path re-transformed %d kernel tiles on repeated calls", d)
	}

	// The unplanned path pays the transforms again on every call.
	eu := NewEngine()
	eu.NTA = 2
	eu.NConv = 64
	eu.UseTiledPath = true
	var perCall []int64
	for call := 0; call < 2; call++ {
		b := tiling.KernelTileTransforms()
		if _, err := eu.Conv2D(in, w, nil, 1, tensor.Same); err != nil {
			t.Fatal(err)
		}
		perCall = append(perCall, tiling.KernelTileTransforms()-b)
	}
	if perCall[0] == 0 || perCall[1] == 0 {
		t.Errorf("unplanned tiled path should transform kernels per call, got %v", perCall)
	}
	if perCall[0] != perCall[1] {
		t.Errorf("unplanned per-call transform counts differ: %v", perCall)
	}
}

// TestLayerPlanStale verifies config changes that invalidate cached weights
// are detected, and runtime knobs are not.
func TestLayerPlanStale(t *testing.T) {
	w := tensor.New(2, 3, 3, 3)
	fillDeterministic(w, 17, 0.4)
	e := NewEngine()
	planI, err := e.PlanConv(w, nil, 1, tensor.Same)
	if err != nil {
		t.Fatal(err)
	}
	if planI.Stale() {
		t.Fatal("fresh plan must not be stale")
	}
	e.NTA, e.ADCBits, e.ReadoutNoise = 4, 6, 0.01 // runtime knobs: read live
	if planI.Stale() {
		t.Error("runtime knob changes must not invalidate the plan")
	}
	e.DACBits = 4 // bakes into cached weights
	if !planI.Stale() {
		t.Error("DAC width change must invalidate the plan")
	}
	if _, err := planI.Conv2D(tensor.New(1, 3, 6, 6)); err == nil {
		t.Error("running a stale plan must fail")
	}
	e.DACBits = 8
	e.UseTiledPath = true
	if !planI.Stale() {
		t.Error("tiled-path routing change must invalidate the plan")
	}
}

// TestQuickselectMatchesSort pins the quickselect result against the sorted
// reference on random and adversarial inputs at several percentiles.
func TestQuickselectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	mk := func(n int, f func(i int) float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = f(i)
		}
		return s
	}
	inputs := map[string][]float64{
		"random":    mk(501, func(int) float64 { return rng.NormFloat64() }),
		"sorted":    mk(400, func(i int) float64 { return float64(i) }),
		"reverse":   mk(400, func(i int) float64 { return float64(400 - i) }),
		"dups":      mk(300, func(i int) float64 { return float64(i % 7) }),
		"all-equal": mk(64, func(int) float64 { return 3.25 }),
		"single":    {42},
	}
	for name, data := range inputs {
		ref := append([]float64(nil), data...)
		sort.Float64s(ref)
		for _, k := range []int{0, 1, len(data) / 4, len(data) / 2, len(data) - 1} {
			if k >= len(data) {
				continue
			}
			work := append([]float64(nil), data...)
			if got := quickselect(work, k); got != ref[k] {
				t.Errorf("%s: quickselect(k=%d) = %v, sorted reference %v", name, k, got, ref[k])
			}
		}
	}
}

// TestCalibScalePercentileMatchesSortedReference pins the pooled-quickselect
// calibration against the original copy-and-sort implementation.
func TestCalibScalePercentileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]float64, 997)
	for i := range data {
		data[i] = rng.NormFloat64() * 3
	}
	sortedRef := func(data []float64, percentile float64) float64 {
		abs := make([]float64, len(data))
		for i, v := range data {
			if v < 0 {
				v = -v
			}
			abs[i] = v
		}
		sort.Float64s(abs)
		idx := int(percentile*float64(len(abs))) - 1
		if idx < 0 {
			idx = 0
		}
		if abs[idx] <= 0 {
			return 1
		}
		return abs[idx]
	}
	for _, pct := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999} {
		if got, want := calibScale(data, pct), sortedRef(data, pct); got != want {
			t.Errorf("percentile %g: calibScale %v, sorted reference %v", pct, got, want)
		}
	}
	// Degenerate distributions.
	if got := calibScale(make([]float64, 10), 0.5); got != 1 {
		t.Errorf("all-zero distribution should calibrate to 1, got %v", got)
	}
}
