package photofourier

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"photofourier/internal/nn"
	"photofourier/internal/pool"
	"photofourier/internal/tensor"
)

// BenchmarkIntraBatch1 measures batch-1 latency: one AlexNetS inference
// served by a single device and by pools of 2 and 4 devices. ns/op is
// wall-clock time per request. A lone batch-1 call on a pool takes
// output-channel ranges, at most one per CPU: the range goroutines of one
// layer run on the host's CPUs, so ranges cut batch-1 latency only up to
// the CPU count (on 2 CPUs both pools split each layer in 2).
//
// The paired case times one single-device call and one 2-device pool call
// per iteration, in alternating order, and reports the median of the
// per-pair wall-clock ratios as single/pool2: the two calls of a pair run
// back to back, so drift of the host between pairs cancels in the ratio.
// CI gates that median at -test.cpu 2.
func BenchmarkIntraBatch1(b *testing.B) {
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
			p := openIntraPool(b, tc.size, x)
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
	b.Run("paired", func(b *testing.B) {
		pools := [2]*pool.DevicePool{openIntraPool(b, 1, x), openIntraPool(b, 2, x)}
		ratios := make([]float64, b.N)
		b.ResetTimer()
		for i := range ratios {
			var ns [2]float64 // single, pool2
			for k := 0; k < 2; k++ {
				which := (i + k) % 2 // even pairs start with single
				t0 := time.Now()
				if _, err := pools[which].ForwardBatch(x); err != nil {
					b.Fatal(err)
				}
				ns[which] = float64(time.Since(t0))
			}
			ratios[i] = ns[0] / ns[1]
		}
		b.StopTimer()
		slices.Sort(ratios)
		n := len(ratios)
		b.ReportMetric((ratios[(n-1)/2]+ratios[n/2])/2, "single/pool2")
	})
}

// openIntraPool opens a pool of size benchPoolDevice devices over AlexNetS,
// closed when the benchmark ends, and warms it with one call on x.
func openIntraPool(b *testing.B, size int, x *tensor.Tensor) *pool.DevicePool {
	b.Helper()
	p, err := pool.Open(nn.AlexNetS(10, 7), fmt.Sprintf("pool?quarantine=1,devices=%s*%d", benchPoolDevice, size))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	if _, err := p.ForwardBatch(x); err != nil { // warm geometry + pools
		b.Fatal(err)
	}
	return p
}
