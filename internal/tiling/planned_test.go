package tiling

import (
	"math/rand"
	"testing"

	"photofourier/internal/fourier"
	"photofourier/internal/tensor"
)

// TestPlannedMatchesCorrelatorPath pins the kernel-spectrum path to the
// generic Correlator path bit for bit, across all three tiling regimes and
// both padding semantics. Both paths run the same FFT lengths on the same
// operands, so the spectra reuse must not change a single bit.
func TestPlannedMatchesCorrelatorPath(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	cases := []struct {
		name      string
		h, w, k   int
		nconv     int
		pad       tensor.PadMode
		columnPad bool
	}{
		{"row-tiling-same", 14, 14, 3, 256, tensor.Same, false},
		{"row-tiling-valid", 14, 14, 3, 256, tensor.Valid, false},
		{"row-tiling-colpad", 14, 14, 3, 256, tensor.Same, true},
		{"partial-same", 16, 16, 5, 40, tensor.Same, false},
		{"partial-valid", 16, 16, 5, 40, tensor.Valid, false},
		{"partitioned-same", 12, 24, 3, 10, tensor.Same, false},
		{"partitioned-valid", 12, 24, 3, 10, tensor.Valid, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPlan(tc.h, tc.w, tc.k, tc.nconv, tc.pad, tc.columnPad)
			if err != nil {
				t.Fatal(err)
			}
			input := make([][]float64, tc.h)
			for r := range input {
				input[r] = make([]float64, tc.w)
				for c := range input[r] {
					input[r][c] = rng.NormFloat64()
				}
			}
			kernel := make([][]float64, tc.k)
			for r := range kernel {
				kernel[r] = make([]float64, tc.k)
				for c := range kernel[r] {
					kernel[r][c] = rng.NormFloat64()
				}
			}
			viaCorr, err := p.Conv2D(input, kernel, fourier.CrossCorrelate)
			if err != nil {
				t.Fatal(err)
			}
			kp, err := p.PlanKernel(kernel)
			if err != nil {
				t.Fatal(err)
			}
			viaPlan, err := p.Conv2DPlanned(input, kp)
			if err != nil {
				t.Fatal(err)
			}
			for r := range viaCorr {
				for c := range viaCorr[r] {
					if viaCorr[r][c] != viaPlan[r][c] {
						t.Fatalf("(%d,%d): correlator path %g != planned path %g", r, c, viaCorr[r][c], viaPlan[r][c])
					}
				}
			}
			// The nil-correlator default routes through the planned path.
			viaNil, err := p.Conv2D(input, kernel, nil)
			if err != nil {
				t.Fatal(err)
			}
			for r := range viaNil {
				for c := range viaNil[r] {
					if viaNil[r][c] != viaPlan[r][c] {
						t.Fatalf("(%d,%d): nil-correlator %g != planned %g", r, c, viaNil[r][c], viaPlan[r][c])
					}
				}
			}
		})
	}
}

// TestPlannedAccumAddsIntoExisting verifies the accumulate contract: running
// the planned conv into a non-zero accumulator adds rather than overwrites.
func TestPlannedAccumAddsIntoExisting(t *testing.T) {
	p, err := NewPlan(8, 8, 3, 256, tensor.Valid, false)
	if err != nil {
		t.Fatal(err)
	}
	input := make([][]float64, 8)
	for r := range input {
		input[r] = make([]float64, 8)
		for c := range input[r] {
			input[r][c] = float64(r + c)
		}
	}
	kernel := [][]float64{{1, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	kp, err := p.PlanKernel(kernel)
	if err != nil {
		t.Fatal(err)
	}
	acc := make([]float64, p.OutH*p.OutW)
	for i := range acc {
		acc[i] = 100
	}
	if err := p.Conv2DPlannedAccum([][][]float64{input}, []*KernelPlan{kp}, acc); err != nil {
		t.Fatal(err)
	}
	once, err := p.Conv2DPlanned(input, kp)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p.OutH; r++ {
		for c := 0; c < p.OutW; c++ {
			want := 100 + once[r][c]
			if diff := acc[r*p.OutW+c] - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("(%d,%d): got %g want %g", r, c, acc[r*p.OutW+c], want)
			}
		}
	}
}

// TestConv2DRejectsMismatchedKernelWithCorrelator covers the regression
// where the custom-correlator path skipped kernel validation: a kernel whose
// size mismatches the plan must error in every tiling mode, not panic.
func TestConv2DRejectsMismatchedKernelWithCorrelator(t *testing.T) {
	for _, nconv := range []int{256, 8, 4} { // row tiling, partial, partitioned
		p, err := NewPlan(6, 6, 3, nconv, tensor.Same, false)
		if err != nil {
			t.Fatal(err)
		}
		input := make([][]float64, 6)
		for r := range input {
			input[r] = make([]float64, 6)
		}
		bad := [][]float64{{1, 0}, {0, 1}}
		if _, err := p.Conv2D(input, bad, fourier.CrossCorrelate); err == nil {
			t.Errorf("nconv=%d (%v): mismatched kernel should fail", nconv, p.Mode)
		}
		nonSquare := [][]float64{{1, 0}, {0, 1}, {1, 1}}
		if _, err := p.Conv2D(input, nonSquare, fourier.CrossCorrelate); err == nil {
			t.Errorf("nconv=%d (%v): non-square kernel should fail", nconv, p.Mode)
		}
	}
}

// TestPlanKernelValidation covers the kernel/plan mismatch errors.
func TestPlanKernelValidation(t *testing.T) {
	p, err := NewPlan(8, 8, 3, 256, tensor.Same, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PlanKernel([][]float64{{1, 2, 3}}); err == nil {
		t.Error("wrong row count should fail")
	}
	if _, err := p.PlanKernel([][]float64{{1, 2}, {3, 4}, {5, 6}}); err == nil {
		t.Error("non-square kernel should fail")
	}
	other, err := NewPlan(10, 10, 3, 256, tensor.Same, false)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := other.PlanKernel([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	input := make([][]float64, 8)
	for r := range input {
		input[r] = make([]float64, 8)
	}
	if err := p.Conv2DPlannedAccum([][][]float64{input}, []*KernelPlan{kp}, make([]float64, p.OutH*p.OutW)); err == nil {
		t.Error("kernel plan from another plan should fail")
	}
	if err := p.Conv2DPlannedAccum([][][]float64{input}, []*KernelPlan{nil}, make([]float64, p.OutH*p.OutW)); err == nil {
		t.Error("nil kernel plan should fail")
	}
	if err := p.Conv2DPlannedAccum([][][]float64{input, input}, []*KernelPlan{kp}, make([]float64, p.OutH*p.OutW)); err == nil {
		t.Error("more planes than kernel plans should fail")
	}
}
