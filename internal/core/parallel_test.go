package core

import (
	"fmt"
	"runtime"
	"testing"

	"photofourier/internal/jtc"
	"photofourier/internal/tensor"
)

func fillDeterministic(t *tensor.Tensor, period int, offset float64) {
	for i := range t.Data {
		t.Data[i] = float64(i%period)/float64(period) - offset
	}
}

func assertBitIdentical(t *testing.T, serial, parallel *tensor.Tensor, label string) {
	t.Helper()
	if len(serial.Data) != len(parallel.Data) {
		t.Fatalf("%s: output sizes differ: %d vs %d", label, len(serial.Data), len(parallel.Data))
	}
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("%s: element %d differs: serial %v parallel %v", label, i, serial.Data[i], parallel.Data[i])
		}
	}
}

// TestRowTiledParallelMatchesSerial is the golden equivalence test: the
// worker-pool path must be bit-identical to the serial path for every
// tiling regime, padding semantics, column padding, and stride.
func TestRowTiledParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		name      string
		nconv     int
		pad       tensor.PadMode
		columnPad bool
		stride    int
	}{
		{"row-tiling-same", 256, tensor.Same, false, 1},
		{"row-tiling-valid", 256, tensor.Valid, false, 1},
		{"row-tiling-colpad", 256, tensor.Same, true, 1},
		{"row-tiling-strided", 256, tensor.Same, false, 2},
		{"partial-row-tiling", 40, tensor.Same, false, 1},
		{"row-partitioning", 10, tensor.Valid, false, 1},
	}
	in := tensor.New(2, 5, 14, 14)
	w := tensor.New(6, 5, 3, 3)
	fillDeterministic(in, 97, 0)
	fillDeterministic(w, 53, 0.3)
	bias := []float64{0.1, -0.2, 0.3, -0.4, 0.5, -0.6}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := NewRowTiledEngine(tc.nconv)
			serial.ColumnPad = tc.columnPad
			serial.Parallelism = 1
			parallel := NewRowTiledEngine(tc.nconv)
			parallel.ColumnPad = tc.columnPad
			parallel.Parallelism = runtime.NumCPU() + 2
			want, err := serial.Conv2D(in, w, bias, tc.stride, tc.pad)
			if err != nil {
				t.Fatal(err)
			}
			got, err := parallel.Conv2D(in, w, bias, tc.stride, tc.pad)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, want, got, tc.name)
		})
	}
}

// TestEngineParallelMatchesSerial covers the full accelerator: quantized
// operands, temporal accumulation, ADC readout, detector noise — including
// the per-channel square-law detector and a noisy seeded detector, where
// serial group-order noise consumption must make parallel runs reproduce
// the serial bits exactly.
func TestEngineParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		name     string
		detector func() jtc.Detector
		tiled    bool
		stride   int
		pad      tensor.PadMode
		readout  float64
	}{
		{"linear-fast-path", func() jtc.Detector { return jtc.NewLinearPowerDetector(0, 0, 0) }, false, 1, tensor.Same, 0},
		{"linear-valid-strided", func() jtc.Detector { return jtc.NewLinearPowerDetector(0, 0, 0) }, false, 2, tensor.Valid, 0},
		{"square-law-per-channel", func() jtc.Detector { return jtc.NewSquareLawDetector(0, 0) }, false, 1, tensor.Same, 0},
		{"noisy-linear-seeded", func() jtc.Detector { return jtc.NewLinearPowerDetector(0.01, 0.005, 7) }, false, 1, tensor.Same, 0},
		{"readout-noise", func() jtc.Detector { return jtc.NewLinearPowerDetector(0, 0, 0) }, false, 1, tensor.Same, 0.01},
		{"tiled-path", func() jtc.Detector { return jtc.NewLinearPowerDetector(0, 0, 0) }, true, 1, tensor.Same, 0},
		{"tiled-noisy", func() jtc.Detector { return jtc.NewLinearPowerDetector(0.01, 0, 9) }, true, 1, tensor.Valid, 0},
	}
	in := tensor.New(2, 6, 10, 10)
	w := tensor.New(4, 6, 3, 3)
	fillDeterministic(in, 89, 0)
	fillDeterministic(w, 37, 0.4)
	run := func(parallelism int, tc int) (*tensor.Tensor, error) {
		c := cases[tc]
		e := NewEngine()
		e.NTA = 4
		e.NConv = 64
		e.Detector = c.detector()
		e.UseTiledPath = c.tiled
		e.ReadoutNoise = c.readout
		e.Parallelism = parallelism
		return e.Conv2D(in, w, []float64{0.1, 0.2, 0.3, 0.4}, c.stride, c.pad)
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := run(1, i)
			if err != nil {
				t.Fatal(err)
			}
			got, err := run(runtime.NumCPU()+2, i)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, want, got, tc.name)
		})
	}
}

// TestEngineNoisyReproducible verifies a fixed seed reproduces identical
// output across repeated parallel runs (the RNG is re-seeded per engine).
func TestEngineNoisyReproducible(t *testing.T) {
	in := tensor.New(1, 4, 8, 8)
	w := tensor.New(2, 4, 3, 3)
	fillDeterministic(in, 71, 0)
	fillDeterministic(w, 31, 0.2)
	run := func() *tensor.Tensor {
		e := NewEngine()
		e.NTA = 2
		e.Detector = jtc.NewLinearPowerDetector(0.02, 0.01, 5)
		e.ReadoutNoise = 0.01
		e.Parallelism = runtime.NumCPU()
		out, err := e.Conv2D(in, w, nil, 1, tensor.Same)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	assertBitIdentical(t, run(), run(), "noisy-reproducible")
}

// TestRowTiledEngineSharedAcrossGoroutines runs one engine instance from
// many goroutines at once (the serving pattern) and checks every result
// against a reference; run under -race this also proves the plan and kernel
// caches are concurrency-safe.
func TestRowTiledEngineSharedAcrossGoroutines(t *testing.T) {
	e := NewRowTiledEngine(256)
	in := tensor.New(1, 3, 12, 12)
	w := tensor.New(2, 3, 3, 3)
	fillDeterministic(in, 61, 0)
	fillDeterministic(w, 29, 0.3)
	ref, err := e.Conv2D(in, w, nil, 1, tensor.Same)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			out, err := e.Conv2D(in, w, nil, 1, tensor.Same)
			if err != nil {
				errs <- err
				return
			}
			for i := range out.Data {
				if out.Data[i] != ref.Data[i] {
					errs <- fmt.Errorf("concurrent Conv2D diverged at %d", i)
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
