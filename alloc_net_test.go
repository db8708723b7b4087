//go:build !race

// The race detector's sync.Pool drops pooled items at random, so the
// steady state this file pins only exists in non-race builds.

package photofourier

import (
	"math/rand"
	"testing"

	"photofourier/internal/backend"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

// TestForwardBatchSteadyStateAllocs pins the allocation-free steady state of
// the tiled path: after one warm-up batch has populated the geometry caches
// and scratch pools, a ForwardBatch of SmallCNN must stay within a handful of
// allocations — the returned logits tensor the caller retains (struct,
// shape, data) plus the per-call batch context. Batch 8 runs the per-sample
// calibration domain and batch 1 the whole-call one; both sweep through the
// same packed executor. Workers are pinned to 1 so the measurement excludes
// goroutine machinery and is deterministic across hosts.
func TestForwardBatchSteadyStateAllocs(t *testing.T) {
	const maxAllocs = 8
	e, err := backend.Open("accelerator?tiled=true,workers=1")
	if err != nil {
		t.Fatal(err)
	}
	net := nn.SmallCNN([2]int{8, 16}, 10, 7)
	plan, err := net.Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	plan.Parallelism = 1
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{8, 1} {
		x := tensor.New(n, 3, 32, 32)
		x.RandN(rng, 1)
		if _, err := plan.ForwardBatch(x); err != nil { // warm geometry + pools
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := plan.ForwardBatch(x); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Errorf("ForwardBatch steady state at batch %d allocates %.1f/op, want <= %d", n, allocs, maxAllocs)
		}
	}
}
