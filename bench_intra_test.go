package photofourier

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"photofourier/internal/backend"
	"photofourier/internal/nn"
	"photofourier/internal/pool"
	"photofourier/internal/tensor"
)

// BenchmarkIntraBatch1 measures batch-1 latency under output-channel
// sharding (BENCH_10.json): one AlexNetS inference served by a single
// device and by channel sharding at pool {2,4}. ns/op is measured wall
// time: the range goroutines of one layer run on real CPUs, so it shows
// device parallelism only up to the host's CPU count (on 2 CPUs channel-2
// cuts batch-1 latency and channel-4 oversubscribes). The modeled view
// treats every device as an independent accelerator:
//
//   - modeled-ns/sample: serial single-device batch-1 cost (measured) x
//     the cost-weighted fraction of output channels the busiest device
//     sweeps (pool.SplitChannels per layer, layers priced by the arch
//     model through pool.StepCosts). The split is the scheduler's own —
//     only the device parallelism is modeled;
//   - modeled-speedup: serial / modeled, i.e. 1/maxShare — the batch-1
//     latency win over one device, independent of host noise;
//   - arch-ns/sample: the arch performance model's end-to-end conv time
//     for the same plan geometry (arch.EvalLayer summed over the engine
//     convolutions), the modeled-vs-scheduled comparison column.
func BenchmarkIntraBatch1(b *testing.B) {
	dev := benchPoolDevice()
	rng := rand.New(rand.NewSource(45))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	serialNs := serialBatch1Cost(b, dev, x)

	eng, err := backend.Open(dev)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := nn.AlexNetS(10, 7).Compile(eng)
	if err != nil {
		b.Fatal(err)
	}
	metas, err := plan.StepMetas(x.Shape[1], x.Shape[2], x.Shape[3])
	if err != nil {
		b.Fatal(err)
	}
	costs := pool.StepCosts(metas)
	archNs := 0.0
	for _, c := range costs {
		archNs += c * 1e9
	}

	cases := []struct {
		name  string
		shard string
		size  int
	}{
		{"single", "", 1},
		{"channel2", "channel", 2},
		{"channel4", "channel", 4},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			spec := fmt.Sprintf("pool?quarantine=1,devices=%s*%d", dev, tc.size)
			if tc.shard != "" {
				spec = fmt.Sprintf("pool?shard=%s,quarantine=1,devices=%s*%d", tc.shard, dev, tc.size)
			}
			p, err := pool.Open(nn.AlexNetS(10, 7), spec)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			if _, err := p.ForwardBatch(x); err != nil { // warm geometry + pools
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.ForwardBatch(x); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			share := intraMaxShare(tc.shard, tc.size, metas, costs)
			b.ReportMetric(serialNs*share, "modeled-ns/sample")
			b.ReportMetric(1/share, "modeled-speedup")
			b.ReportMetric(archNs, "arch-ns/sample")
			b.ReportMetric(float64(p.Live()), "live-devices")
		})
	}
}

// intraMaxShare computes the busiest device's fraction of one sample's
// total modeled cost under the channel split (1 when nothing is split).
func intraMaxShare(shard string, size int, metas []nn.StepMeta, costs []float64) float64 {
	total := 0.0
	for _, c := range costs {
		total += c
	}
	if shard != "channel" || size <= 1 || total <= 0 {
		return 1
	}
	shares := make([]float64, size)
	for i, m := range metas {
		if m.Conv == nil || costs[i] == 0 {
			continue
		}
		ranges := pool.SplitChannels(m.Conv.Cout, size)
		for d, sp := range ranges {
			shares[d] += costs[i] * float64(sp[1]-sp[0]) / float64(m.Conv.Cout)
		}
	}
	maxShare := 0.0
	for _, s := range shares {
		if s > maxShare {
			maxShare = s
		}
	}
	return maxShare / total
}

// serialBatch1Cost measures one device spec's serial batch-1 latency — the
// single-engine baseline the intra-sample model scales down by maxShare.
func serialBatch1Cost(b *testing.B, spec string, x *tensor.Tensor) float64 {
	b.Helper()
	eng, err := backend.Open(spec)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := nn.AlexNetS(10, 7).Compile(eng)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := plan.ForwardBatch(x); err != nil { // warm geometry + pools
		b.Fatal(err)
	}
	const reps = 3
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := plan.ForwardBatch(x); err != nil {
			b.Fatal(err)
		}
	}
	return float64(time.Since(start)) / float64(reps)
}
