package photofourier

import (
	"fmt"
	"runtime"
	"testing"

	"photofourier/internal/arch"
	"photofourier/internal/backend"
	"photofourier/internal/core"
	"photofourier/internal/experiments"
	"photofourier/internal/jtc"
	"photofourier/internal/nets"
	"photofourier/internal/tensor"
)

// openSpec opens an engine spec through the backend registry for a bench.
func openSpec(b *testing.B, spec string) *backend.Engine {
	b.Helper()
	e, err := backend.Open(spec)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// One benchmark per paper table/figure: each regenerates the artifact
// through the experiment harness (see DESIGN.md's per-experiment index).
// Training-backed experiments (Table I, Fig. 7) run in quick mode under the
// bench harness; `cmd/photofourier -experiment <id>` produces the
// full-budget versions recorded in DESIGN.md's per-experiment index.

func benchExperiment(b *testing.B, id string, quick bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, experiments.Options{Quick: quick})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig2JTCOutput(b *testing.B)           { benchExperiment(b, "fig2", false) }
func BenchmarkFig3RowTiling(b *testing.B)           { benchExperiment(b, "fig3", false) }
func BenchmarkTable1RowTilingAccuracy(b *testing.B) { benchExperiment(b, "table1", true) }
func BenchmarkTable3DesignSpace(b *testing.B)       { benchExperiment(b, "table3", false) }
func BenchmarkDeviceCatalog(b *testing.B)           { benchExperiment(b, "table45", false) }
func BenchmarkFig6BaselinePower(b *testing.B)       { benchExperiment(b, "fig6", false) }
func BenchmarkFig7TemporalAccumulation(b *testing.B) {
	benchExperiment(b, "fig7", true)
}
func BenchmarkFig8Parallelization(b *testing.B)  { benchExperiment(b, "fig8", false) }
func BenchmarkFig10Ablation(b *testing.B)        { benchExperiment(b, "fig10", false) }
func BenchmarkFig11Area(b *testing.B)            { benchExperiment(b, "fig11", false) }
func BenchmarkFig12Power(b *testing.B)           { benchExperiment(b, "fig12", false) }
func BenchmarkFig13Throughput(b *testing.B)      { benchExperiment(b, "fig13a", false) }
func BenchmarkFig13Efficiency(b *testing.B)      { benchExperiment(b, "fig13b", false) }
func BenchmarkFig13EDP(b *testing.B)             { benchExperiment(b, "fig13c", false) }
func BenchmarkCrossLightComparison(b *testing.B) { benchExperiment(b, "crosslight", false) }

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationDetector compares the two detection encodings on one
// convolution (linear power vs. square law).
func BenchmarkAblationDetector(b *testing.B) {
	in := tensor.New(1, 16, 16, 16)
	w := tensor.New(8, 16, 3, 3)
	for i := range in.Data {
		in.Data[i] = float64(i%97) / 97
	}
	for i := range w.Data {
		w.Data[i] = float64(i%53) / 53
	}
	for _, det := range []jtc.Detector{
		jtc.NewLinearPowerDetector(0, 0, 0),
		jtc.NewSquareLawDetector(0, 0),
	} {
		b.Run(det.Name(), func(b *testing.B) {
			e := core.NewEngine()
			e.Detector = det
			for i := 0; i < b.N; i++ {
				if _, err := e.Conv2D(in, w, nil, 1, tensor.Same); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationColumnPad measures the utilization cost of exact
// Same-mode column padding versus the paper's default edge-effect mode.
func BenchmarkAblationColumnPad(b *testing.B) {
	in := tensor.New(1, 4, 14, 14)
	w := tensor.New(4, 4, 3, 3)
	for i := range in.Data {
		in.Data[i] = float64(i%89) / 89
	}
	for i := range w.Data {
		w.Data[i] = float64(i%31) / 31
	}
	for _, pad := range []bool{false, true} {
		name := "edge-effect"
		if pad {
			name = "column-padded"
		}
		b.Run(name, func(b *testing.B) {
			e := openSpec(b, fmt.Sprintf("rowtiled?aperture=256,colpad=%v", pad))
			for i := 0; i < b.N; i++ {
				if _, err := e.Conv2D(in, w, nil, 1, tensor.Same); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTemporalDepth isolates the engine cost across
// accumulation depths.
func BenchmarkAblationTemporalDepth(b *testing.B) {
	in := tensor.New(1, 32, 16, 16)
	w := tensor.New(8, 32, 3, 3)
	for i := range in.Data {
		in.Data[i] = float64(i%71) / 71
	}
	for i := range w.Data {
		w.Data[i] = float64(i%37)/37 - 0.4
	}
	for _, nta := range []int{1, 16} {
		b.Run(map[int]string{1: "depth-1", 16: "depth-16"}[nta], func(b *testing.B) {
			e := openSpec(b, fmt.Sprintf("accelerator?nta=%d", nta))
			for i := 0; i < b.N; i++ {
				if _, err := e.Conv2D(in, w, nil, 1, tensor.Same); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// parallelismSweep returns the Parallelism values the end-to-end conv
// benchmarks cover: serial and all cores (deduplicated on 1-CPU machines).
func parallelismSweep() []int {
	ps := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		ps = append(ps, n)
	}
	return ps
}

// BenchmarkRowTiledConvParallel sweeps the Parallelism knob on a
// CNN-layer-sized row-tiled convolution, measuring the worker-pool speedup
// of the (batch x output-channel) sweep together with the plan-cache and
// kernel-spectrum amortization (both engines share those).
func BenchmarkRowTiledConvParallel(b *testing.B) {
	in := tensor.New(2, 16, 32, 32)
	w := tensor.New(16, 16, 3, 3)
	for i := range in.Data {
		in.Data[i] = float64(i%97) / 97
	}
	for i := range w.Data {
		w.Data[i] = float64(i%53)/53 - 0.4
	}
	for _, p := range parallelismSweep() {
		b.Run(fmt.Sprintf("parallelism-%d", p), func(b *testing.B) {
			e := openSpec(b, fmt.Sprintf("rowtiled?aperture=256,workers=%d", p))
			for i := 0; i < b.N; i++ {
				if _, err := e.Conv2D(in, w, nil, 1, tensor.Same); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAcceleratorConvParallel is the same sweep through the full
// quantized accelerator fast path (grouped temporal accumulation + ADC).
func BenchmarkAcceleratorConvParallel(b *testing.B) {
	in := tensor.New(2, 16, 32, 32)
	w := tensor.New(16, 16, 3, 3)
	for i := range in.Data {
		in.Data[i] = float64(i%89) / 89
	}
	for i := range w.Data {
		w.Data[i] = float64(i%37)/37 - 0.4
	}
	for _, p := range parallelismSweep() {
		b.Run(fmt.Sprintf("parallelism-%d", p), func(b *testing.B) {
			e := openSpec(b, fmt.Sprintf("accelerator?workers=%d", p))
			for i := 0; i < b.N; i++ {
				if _, err := e.Conv2D(in, w, nil, 1, tensor.Same); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// plannedConvWorkloads are the repeated-batch workloads of the planned-vs-
// unplanned engine comparison (BENCH_2.json): a trained layer is set up
// once and then serves many batches. "direct" is the default fast path with
// mixed-sign activations (all four pseudo-negative cross terms live);
// "tiled" is the full-fidelity row-tiled path where the plan latches every
// kernel-tile spectrum. params is the spec-string parameter suffix appended
// to the backend name ("accelerator" planned, "unplanned" baseline).
func plannedConvWorkloads() []struct {
	name   string
	in, w  *tensor.Tensor
	params string
} {
	direct := tensor.New(2, 16, 16, 16)
	dw := tensor.New(16, 16, 3, 3)
	for i := range direct.Data {
		direct.Data[i] = float64(i%97)/97 - 0.35
	}
	for i := range dw.Data {
		dw.Data[i] = float64(i%53)/53 - 0.4
	}
	tiled := tensor.New(1, 8, 12, 12)
	tw := tensor.New(16, 8, 3, 3)
	for i := range tiled.Data {
		tiled.Data[i] = float64(i%89)/89 - 0.3
	}
	for i := range tw.Data {
		tw.Data[i] = float64(i%37)/37 - 0.4
	}
	return []struct {
		name   string
		in, w  *tensor.Tensor
		params string
	}{
		{"direct", direct, dw, ""},
		{"tiled", tiled, tw, "?tiled=true,aperture=256"},
	}
}

// BenchmarkEngineUnplannedConv is the baseline: every call re-quantizes
// both operands, runs four independent cross-term sweeps, and (tiled)
// re-plans every kernel spectrum.
func BenchmarkEngineUnplannedConv(b *testing.B) {
	for _, wl := range plannedConvWorkloads() {
		b.Run(wl.name, func(b *testing.B) {
			e := openSpec(b, "unplanned"+wl.params)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Conv2D(wl.in, wl.w, nil, 1, tensor.Same); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnginePlannedConv is the compiled path: weights quantized and
// sign-split once, kernel spectra latched, one signed sweep over padded
// planes, pooled psum buffers. Output is bit-identical to the unplanned
// baseline.
func BenchmarkEnginePlannedConv(b *testing.B) {
	for _, wl := range plannedConvWorkloads() {
		b.Run(wl.name, func(b *testing.B) {
			e := openSpec(b, "accelerator"+wl.params)
			plan, err := e.PlanConv(wl.w, nil, 1, tensor.Same)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := plan.Conv2D(wl.in); err != nil { // warm geometry cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Conv2D(wl.in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArchitectureModel measures the evaluator itself across the full
// benchmark suite.
func BenchmarkArchitectureModel(b *testing.B) {
	cfg := arch.PhotoFourierCG()
	bench := nets.Benchmark5()
	for i := 0; i < b.N; i++ {
		for _, n := range bench {
			if _, err := arch.EvalNetwork(cfg, n); err != nil {
				b.Fatal(err)
			}
		}
	}
}
