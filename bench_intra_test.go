package photofourier

import (
	"fmt"
	"math/rand"
	"testing"

	"photofourier/internal/nn"
	"photofourier/internal/pool"
	"photofourier/internal/tensor"
)

// BenchmarkIntraBatch1 measures batch-1 latency under output-channel
// sharding: one AlexNetS inference served by a single device and by
// channel sharding at pool {2,4}. ns/op is wall-clock time per request.
// The range goroutines of one layer run on the host's CPUs, so channel
// sharding can cut batch-1 latency only up to the CPU count; past it the
// ranges time-share cores (on 2 CPUs channel-2 wins and channel-4
// oversubscribes). CI gates median(single) / median(channel2) over
// alternating -test.cpu 2 runs.
func BenchmarkIntraBatch1(b *testing.B) {
	dev := benchPoolDevice
	rng := rand.New(rand.NewSource(45))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)

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
			b.ReportMetric(float64(p.Live()), "live-devices")
		})
	}
}
