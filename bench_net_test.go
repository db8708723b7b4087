package photofourier

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"photofourier/internal/backend"
	"photofourier/internal/jtc"
	"photofourier/internal/nn"
	"photofourier/internal/serve"
	"photofourier/internal/tensor"
	"photofourier/internal/tiling"
)

// benchEngineSpec selects the engine the net-level benchmarks run on. The
// default is the paper's accelerator operating point; PF_BENCH_ENGINE
// overrides it with any backend spec (e.g.
// PF_BENCH_ENGINE="accelerator?tiled=true,workers=2" profiles the tiled
// path).
func benchEngineSpec() string {
	if spec := os.Getenv("PF_BENCH_ENGINE"); spec != "" {
		return spec
	}
	return "accelerator"
}

func benchOpen(b *testing.B) *backend.Engine {
	b.Helper()
	e, err := backend.Open(benchEngineSpec())
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// End-to-end inference throughput: one trained-shape CNN served many
// single-sample requests on a registry-opened engine spec (BENCH_3.json).
//
//   - uncompiled-per-sample: Network.Forward with planning suppressed (the
//     spec's unplanned twin at the identical operating point) —
//     module-graph walking plus per-call weight quantization and four
//     independent cross-term sweeps, the pre-compilation baseline;
//   - compiled-per-sample: NetworkPlan.Forward, one sample per call;
//   - compiled-batch8: NetworkPlan.Forward on 8-sample batches (ns/op is
//     per batch; divide by 8 for per-sample);
//   - session-batch8: concurrent clients through an InferenceSession with
//     MaxBatch 8 (RunParallel, so ns/op is wall-clock per sample).
func BenchmarkNetInference(b *testing.B) {
	net := nn.SmallCNN([2]int{8, 16}, 10, 7)
	rng := rand.New(rand.NewSource(21))
	x1 := tensor.New(1, 3, 32, 32)
	x1.RandN(rng, 1)
	x8 := tensor.New(8, 3, 32, 32)
	x8.RandN(rng, 1)
	sample := &tensor.Tensor{Shape: []int{3, 32, 32}, Data: x1.Data}

	b.Run("uncompiled-per-sample", func(b *testing.B) {
		baseline, err := backend.UnplannedTwin(benchOpen(b))
		if err != nil {
			b.Fatal(err)
		}
		net.SetConvEngine(baseline)
		defer net.SetConvEngine(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.Forward(x1); err != nil {
				b.Fatal(err)
			}
		}
	})

	compile := func(b *testing.B) *nn.NetworkPlan {
		b.Helper()
		plan, err := net.Compile(benchOpen(b))
		if err != nil {
			b.Fatal(err)
		}
		return plan
	}

	b.Run("compiled-per-sample", func(b *testing.B) {
		plan := compile(b)
		if _, err := plan.Forward(x1); err != nil { // warm geometry + pools
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Forward(x1); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("compiled-batch8", func(b *testing.B) {
		plan := compile(b)
		if _, err := plan.Forward(x8); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Forward(x8); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("session-batch8", func(b *testing.B) {
		plan := compile(b)
		s, err := serve.New(plan, serve.Options{MaxBatch: 8})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		ctx := context.Background()
		b.SetParallelism(16) // concurrent clients feeding the micro-batcher
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := s.Infer(ctx, sample); err != nil {
					b.Error(err) // Fatal must not run on a PB worker goroutine
					return
				}
			}
		})
	})
}

// BenchmarkNetEvaluate measures the accuracy-sweep workload end to end —
// what the table1/fig7 harness actually runs per evaluation batch:
//
//   - per-sample-double-forward: the sweep pattern PR 3 replaced — one
//     sample per batch, top-1 and top-5 each rerunning Network.Forward
//     (the Predict+TopKCorrect duplication), module graph walked per
//     call. Conv-level lazy LayerPlans stay active, as they were before
//     network compilation existed, so this isolates the network-level
//     win (it is NOT the same baseline as NetInference's
//     uncompiled-per-sample, which also strips layer planning);
//   - compiled-batch8: NetworkPlan.EvaluateLogits on 8-sample batches —
//     one forward pass, every metric derived from the same logits (ns/op
//     is per batch; divide by 8 for per-sample).
func BenchmarkNetEvaluate(b *testing.B) {
	net := nn.SmallCNN([2]int{8, 16}, 10, 7)
	rng := rand.New(rand.NewSource(22))
	x1 := tensor.New(1, 3, 32, 32)
	x1.RandN(rng, 1)
	x8 := tensor.New(8, 3, 32, 32)
	x8.RandN(rng, 1)
	labels8 := []int{3, 1, 4, 1, 5, 9, 2, 6}

	b.Run("per-sample-double-forward", func(b *testing.B) {
		net.SetConvEngine(benchOpen(b))
		defer net.SetConvEngine(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.TopKCorrect(x1, labels8[:1], 1); err != nil {
				b.Fatal(err)
			}
			if _, err := net.TopKCorrect(x1, labels8[:1], 5); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("compiled-batch8", func(b *testing.B) {
		plan, err := net.Compile(benchOpen(b))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.EvaluateLogits(x8, labels8, 5); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.EvaluateLogits(x8, labels8, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNetForwardBatch measures the batch-major per-sample-exact
// inference path (BENCH_5.json): SmallCNN and AlexNetS at batch sizes 1, 8,
// and 32 on the PF_BENCH_ENGINE spec. ns/op is per batch — divide by the
// batch size for per-sample cost. Two custom metrics expose the aperture
// packing and spectrum-arena wins directly (both are zero on the direct,
// non-tiled path, which issues no modeled JTC shots):
//
//   - shots/sample: modeled JTC shots per sample (packed schedule);
//   - ktransforms/sample: kernel-tile spectra built per sample (plan-time
//     latching makes this ~0 in steady state).
func BenchmarkNetForwardBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	nets := []struct {
		name  string
		build func() *nn.Network
	}{
		{"smallcnn", func() *nn.Network { return nn.SmallCNN([2]int{8, 16}, 10, 7) }},
		{"alexnets", func() *nn.Network { return nn.AlexNetS(10, 7) }},
	}
	for _, nc := range nets {
		net := nc.build()
		for _, batch := range []int{1, 8, 32} {
			x := tensor.New(batch, 3, 32, 32)
			x.RandN(rng, 1)
			b.Run(fmt.Sprintf("%s/batch%d", nc.name, batch), func(b *testing.B) {
				plan, err := net.Compile(benchOpen(b))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := plan.ForwardBatch(x); err != nil { // warm geometry + pools
					b.Fatal(err)
				}
				shots0, kt0 := jtc.Shots(), tiling.KernelTileTransforms()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := plan.ForwardBatch(x); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				samples := float64(b.N * batch)
				b.ReportMetric(float64(jtc.Shots()-shots0)/samples, "shots/sample")
				b.ReportMetric(float64(tiling.KernelTileTransforms()-kt0)/samples, "ktransforms/sample")
			})
		}
	}
}
