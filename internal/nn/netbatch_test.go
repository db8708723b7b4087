package nn_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"photofourier/internal/core"
	"photofourier/internal/jtc"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

// batchEngines is the golden ForwardBatch matrix's engine axis: the exact
// substrates, the quantized accelerator, its noisy-readout operating point,
// the tiled (packed-shot) accelerator, and the two engines whose batches
// take the per-sample fallback: the unplanned accelerator (quantized engine
// steps) and a noisy detector (plans that are not BatchExact).
func batchEngines() []engineFactory {
	return []engineFactory{
		{"reference", true, func(int) nn.ConvEngine { return nil }},
		{"rowtiled", true, func(w int) nn.ConvEngine {
			e := core.NewRowTiledEngine(64)
			e.Parallelism = w
			return e
		}},
		{"accelerator", true, func(w int) nn.ConvEngine {
			e := core.NewEngine()
			e.Parallelism = w
			return e
		}},
		{"accelerator-noisy", false, func(w int) nn.ConvEngine {
			e := core.NewEngine()
			e.NTA = 2
			e.ReadoutNoise = 0.01
			e.Parallelism = w
			return e
		}},
		{"accelerator-tiled", true, func(w int) nn.ConvEngine {
			e := core.NewEngine()
			e.UseTiledPath = true
			e.NConv = 64
			e.Parallelism = w
			return e
		}},
		{"accelerator-tiled-noisy", false, func(w int) nn.ConvEngine {
			e := core.NewEngine()
			e.UseTiledPath = true
			e.NConv = 64
			e.ReadoutNoise = 0.01
			e.Parallelism = w
			return e
		}},
		{"unplanned", true, func(w int) nn.ConvEngine {
			e := core.NewEngine()
			e.Parallelism = w
			return e.Unplanned()
		}},
		{"accelerator-noisy-detector", false, func(w int) nn.ConvEngine {
			e := core.NewEngine()
			e.Detector = jtc.NewLinearPowerDetector(0.01, 0.005, 7)
			e.Parallelism = w
			return e
		}},
	}
}

func batchWorkerCounts() []int {
	ws := []int{1}
	if n := runtime.NumCPU(); n != 1 {
		ws = append(ws, n)
	}
	return ws
}

// TestForwardBatchMatchesPerSampleGolden pins the batch-execution contract:
// NetworkPlan.ForwardBatch over an n-sample batch is bit-identical to n
// per-sample NetworkPlan.Forward calls in order — including per-sample DAC
// scales and ADC calibration on the quantized engines and the keyed
// readout-noise substreams on the noisy operating points (fresh engine
// instances per side keep the call sequences aligned).
func TestForwardBatchMatchesPerSampleGolden(t *testing.T) {
	for _, net := range stockNets() {
		for _, ef := range batchEngines() {
			for _, workers := range batchWorkerCounts() {
				for _, batch := range []int{1, 3, 8} {
					name := fmt.Sprintf("%s/%s/workers=%d/batch=%d", net.Name, ef.name, workers, batch)
					full := goldenBatch(int64(37+batch), batch)

					planA, err := net.Compile(ef.build(workers))
					if err != nil {
						t.Fatalf("%s: compile A: %v", name, err)
					}
					planA.Parallelism = workers
					want := make([]float64, 0, batch*10)
					per := full.Size() / batch
					for b := 0; b < batch; b++ {
						sample := &tensor.Tensor{Shape: []int{1, 3, 16, 16}, Data: full.Data[b*per : (b+1)*per]}
						logits, err := planA.Forward(sample)
						if err != nil {
							t.Fatalf("%s: per-sample forward %d: %v", name, b, err)
						}
						want = append(want, logits.Data...)
					}

					planB, err := net.Compile(ef.build(workers))
					if err != nil {
						t.Fatalf("%s: compile B: %v", name, err)
					}
					planB.Parallelism = workers
					got, err := planB.ForwardBatch(full)
					if err != nil {
						t.Fatalf("%s: batch forward: %v", name, err)
					}
					if len(got.Data) != len(want) {
						t.Fatalf("%s: size %d vs %d", name, len(got.Data), len(want))
					}
					for i := range want {
						if got.Data[i] != want[i] {
							t.Fatalf("%s: diverged at %d: %v vs %v", name, i, got.Data[i], want[i])
						}
					}
				}
			}
		}
	}
}

func goldenBatch(seed int64, n int) *tensor.Tensor {
	x := goldenInput(seed)
	full := tensor.New(n, 3, 16, 16)
	per := x.Size() / x.Shape[0]
	for b := 0; b < n; b++ {
		copy(full.Data[b*per:(b+1)*per], x.Data[(b%x.Shape[0])*per:(b%x.Shape[0]+1)*per])
		// Vary samples so per-sample quantization scales differ.
		for i := b * per; i < (b+1)*per; i++ {
			full.Data[i] *= 1 + 0.1*float64(b)
		}
	}
	return full
}

// TestForwardBatchSharedPlanConcurrent hammers one compiled plan with
// concurrent ForwardBatch batches (-race coverage for the batch-major
// sweep, arena, and pooled buffers) and checks every result against a
// serial reference — the noise-free quantized engine is batch-invariant,
// so all goroutines must agree bit for bit.
func TestForwardBatchSharedPlanConcurrent(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 3)
	e := core.NewEngine()
	plan, err := net.Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	x := goldenBatch(91, 4)
	want, err := plan.ForwardBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := plan.ForwardBatch(x)
				if err != nil {
					errs <- err
					return
				}
				for j := range want.Data {
					if got.Data[j] != want.Data[j] {
						errs <- fmt.Errorf("concurrent batch diverged at %d", j)
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

// TestForwardBatchStale confirms the staleness gate covers the batch path.
func TestForwardBatchStale(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 3)
	plan, err := net.Compile(core.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	nn.Walk(net.Root, func(m nn.Module) {
		if c, ok := m.(*nn.Conv); ok {
			c.InvalidatePlan()
		}
	})
	if _, err := plan.ForwardBatch(goldenBatch(1, 2)); err == nil {
		t.Fatal("stale plan executed a batch")
	}
}
