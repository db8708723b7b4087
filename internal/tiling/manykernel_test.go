package tiling

import (
	"math/rand"
	"testing"

	"photofourier/internal/tensor"
)

// TestConv2DPlannedAccumManyMatchesSingle verifies the spectrum-sharing
// many-kernel path is bit-identical to independent planned convolutions in
// every tiling regime.
func TestConv2DPlannedAccumManyMatchesSingle(t *testing.T) {
	cases := []struct {
		name   string
		nconv  int
		pad    tensor.PadMode
		colpad bool
	}{
		{"row-tiling-same", 256, tensor.Same, false},
		{"row-tiling-valid", 256, tensor.Valid, false},
		{"partial-row-tiling", 40, tensor.Same, false},
		{"row-partitioning", 10, tensor.Valid, false},
		// RowLen 16 > OutW 14: the one window whose source stride
		// differs from its width.
		{"row-tiling-colpad", 128, tensor.Same, true},
	}
	rng := rand.New(rand.NewSource(21))
	h, w, k := 14, 14, 3
	input := make([][]float64, h)
	for r := range input {
		input[r] = make([]float64, w)
		for c := range input[r] {
			input[r][c] = rng.NormFloat64()
		}
	}
	const nk = 5
	kernels := make([][][]float64, nk)
	for j := range kernels {
		kernels[j] = make([][]float64, k)
		for r := range kernels[j] {
			kernels[j][r] = make([]float64, k)
			for c := range kernels[j][r] {
				kernels[j][r][c] = rng.NormFloat64()
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPlan(h, w, k, tc.nconv, tc.pad, tc.colpad)
			if err != nil {
				t.Fatal(err)
			}
			kps := make([]*KernelPlan, nk)
			for j := range kernels {
				if kps[j], err = p.PlanKernel(kernels[j]); err != nil {
					t.Fatal(err)
				}
			}
			want := make([][]float64, nk)
			for j := range kernels {
				want[j] = make([]float64, p.OutH*p.OutW)
				if err := p.Conv2DPlannedAccum(input, kps[j], want[j]); err != nil {
					t.Fatal(err)
				}
			}
			got := make([][]float64, nk)
			for j := range got {
				got[j] = make([]float64, p.OutH*p.OutW)
			}
			if err := p.Conv2DPlannedAccumMany(input, kps, got); err != nil {
				t.Fatal(err)
			}
			for j := range got {
				for i := range got[j] {
					if got[j][i] != want[j][i] {
						t.Fatalf("kernel %d sample %d: many %v != single %v", j, i, got[j][i], want[j][i])
					}
				}
			}
		})
	}
}

// TestConv2DPlannedAccumManyValidation covers the error paths.
func TestConv2DPlannedAccumManyValidation(t *testing.T) {
	p, err := NewPlan(8, 8, 3, 64, tensor.Same, false)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewPlan(10, 10, 3, 64, tensor.Same, false)
	if err != nil {
		t.Fatal(err)
	}
	kern := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	kp, err := p.PlanKernel(kern)
	if err != nil {
		t.Fatal(err)
	}
	okp, err := other.PlanKernel(kern)
	if err != nil {
		t.Fatal(err)
	}
	input := make([][]float64, 8)
	for r := range input {
		input[r] = make([]float64, 8)
	}
	acc := make([]float64, p.OutH*p.OutW)
	if err := p.Conv2DPlannedAccumMany(input, []*KernelPlan{kp}, [][]float64{acc, acc}); err == nil {
		t.Error("mismatched kps/accs lengths should fail")
	}
	if err := p.Conv2DPlannedAccumMany(input, []*KernelPlan{okp}, [][]float64{acc}); err == nil {
		t.Error("foreign kernel plan should fail")
	}
	if err := p.Conv2DPlannedAccumMany(input, []*KernelPlan{kp}, [][]float64{acc[:3]}); err == nil {
		t.Error("short accumulator should fail")
	}
	if err := p.Conv2DPlannedAccumMany(input, nil, nil); err != nil {
		t.Errorf("empty kernel set is a no-op, got %v", err)
	}
}
