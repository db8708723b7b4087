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

// benchPoolDevice is the per-device spec the pool benchmarks replicate:
// the paper's tiled accelerator operating point, one intra-op worker per
// device (the spec BENCH_7.json and BENCH_10.json record).
const benchPoolDevice = "accelerator?tiled=true,workers=1"

// BenchmarkPoolForwardBatch measures batch-32 inference sharded across a
// DevicePool at pool sizes 1, 2, 4, and 8, plus a size-4 run with one
// device on a permanent outage (BENCH_7.json). Two throughput views:
//
//   - ns/op: wall-clock per 32-sample batch. The shard goroutines run on
//     the host's CPUs, so this can fall with pool size only up to the CPU
//     count; past it they time-share cores and the extra devices add
//     scheduling overhead on top of serial execution (per-device
//     wall-clock occupancy is confounded by the same time-slicing);
//   - modeled-ns/sample: serial per-sample device cost x the largest
//     sample share the pool scheduler actually assigned to any one
//     device. Each pool device is modeled as an independent physical
//     accelerator whose per-sample cost is measured serially on an
//     identical single engine; a request's makespan is then the busiest
//     device's share. Sharding decisions (shard counts, retries, the
//     load skew a quarantined device causes) come from the real
//     scheduler — only the device parallelism is modeled. Near-ideal
//     scaling means this falls ~linearly with live devices.
//
// The outage variant shows graceful degradation: the dead device is
// quarantined after its first shard, the remaining three absorb the load,
// and every request still completes (throughput lands near the 3-device
// point, not at zero).
func BenchmarkPoolForwardBatch(b *testing.B) {
	const batch = 32
	dev := benchPoolDevice
	cases := []struct {
		name string
		spec string
	}{
		{"pool1", fmt.Sprintf("pool?quarantine=1,devices=%s*1", dev)},
		{"pool2", fmt.Sprintf("pool?quarantine=1,devices=%s*2", dev)},
		{"pool4", fmt.Sprintf("pool?quarantine=1,devices=%s*4", dev)},
		{"pool8", fmt.Sprintf("pool?quarantine=1,devices=%s*8", dev)},
		{"pool4-outage", fmt.Sprintf(
			"pool?quarantine=1,devices=%s*3|%s,fault=outage:1,faultseed=3", dev, dev)},
	}
	rng := rand.New(rand.NewSource(44))
	x := tensor.New(batch, 3, 32, 32)
	x.RandN(rng, 1)
	serialNs := serialSampleCost(b, dev, x, batch)
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			net := nn.SmallCNN([2]int{8, 16}, 10, 7)
			p, err := pool.Open(net, tc.spec)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			if _, err := p.ForwardBatch(x); err != nil { // warm + trip any outage
				b.Fatal(err)
			}
			samples0 := deviceSamples(p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.ForwardBatch(x); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			maxShare := 0.0
			for i, row := range p.DeviceHealth() {
				if share := float64(row.Samples-samples0[i]) / float64(b.N); share > maxShare {
					maxShare = share
				}
			}
			b.ReportMetric(serialNs*maxShare/batch, "modeled-ns/sample")
			b.ReportMetric(float64(p.Live()), "live-devices")
		})
	}
}

// serialSampleCost measures the per-sample cost of one device spec run
// serially — the physical-device cost the pool-scaling model multiplies by
// each device's scheduled share.
func serialSampleCost(b *testing.B, spec string, x *tensor.Tensor, batch int) float64 {
	b.Helper()
	eng, err := backend.Open(spec)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := nn.SmallCNN([2]int{8, 16}, 10, 7).Compile(eng)
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
	return float64(time.Since(start)) / float64(reps*batch)
}

func deviceSamples(p *pool.DevicePool) []uint64 {
	rows := p.DeviceHealth()
	samples := make([]uint64, len(rows))
	for i, row := range rows {
		samples[i] = row.Samples
	}
	return samples
}
