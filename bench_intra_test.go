package photofourier

import (
	"fmt"
	"math/rand"
	"testing"

	"photofourier/internal/nn"
	"photofourier/internal/pool"
	"photofourier/internal/tensor"
)

// BenchmarkIntraBatch1 measures batch-1 latency: one AlexNetS inference
// served by a single device and by pools of 2 and 4 devices. ns/op is
// wall-clock time per request. A lone batch-1 call on a pool takes
// output-channel ranges, at most one per CPU: the range goroutines of one
// layer run on the host's CPUs, so ranges cut batch-1 latency only up to
// the CPU count (on 2 CPUs both pools split each layer in 2). CI gates
// median(single) / median(pool2) over alternating -test.cpu 2 runs.
func BenchmarkIntraBatch1(b *testing.B) {
	dev := benchPoolDevice
	rng := rand.New(rand.NewSource(45))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)

	for _, tc := range []struct {
		name string
		size int
	}{
		{"single", 1},
		{"pool2", 2},
		{"pool4", 4},
	} {
		b.Run(tc.name, func(b *testing.B) {
			spec := fmt.Sprintf("pool?quarantine=1,devices=%s*%d", dev, tc.size)
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
