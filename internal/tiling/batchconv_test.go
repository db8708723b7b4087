package tiling

import (
	"math"
	"math/rand"
	"testing"

	"photofourier/internal/jtc"
	"photofourier/internal/tensor"
)

// TestConv2DPlannedAccumBatchMatchesSingle runs the packed batch executor in
// every tiling regime with many kernels of both weight signs over samples
// that carry different activation parts. Every (term, sample, kernel)
// accumulator must match a single-kernel Conv2DPlannedAccum into the same
// starting values bit for bit, accumulators of a sample without the term's
// part must stay untouched, and the shot counter must advance by the packed
// schedule of each part's present samples times the kernel count.
func TestConv2DPlannedAccumBatchMatchesSingle(t *testing.T) {
	cases := []struct {
		name   string
		nconv  int
		pad    tensor.PadMode
		colpad bool
		mode   Mode
	}{
		{"row-tiling-same", 256, tensor.Same, false, RowTiling},
		{"row-tiling-valid", 256, tensor.Valid, false, RowTiling},
		{"partial-row-tiling", 40, tensor.Same, false, PartialRowTiling},
		{"row-partitioning", 10, tensor.Valid, false, RowPartitioning},
		// RowLen 16 > OutW 14: the one window whose source stride
		// differs from its width.
		{"row-tiling-colpad", 128, tensor.Same, true, RowTiling},
	}
	const h, w, k, n = 14, 14, 3, 3
	const nPos, nNeg = 5, 3 // kernels per weight sign
	rng := rand.New(rand.NewSource(21))
	pos := make([][][]float64, n)
	neg := make([][][]float64, n)
	for b := 0; b < n; b++ {
		pos[b] = randPlane(rng, h, w)
		if b != 1 { // sample 1 has no negative part
			neg[b] = randPlane(rng, h, w)
		}
	}
	kernels := make([][][]float64, nPos+nNeg)
	for j := range kernels {
		kernels[j] = randPlane(rng, k, k)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPlan(h, w, k, tc.nconv, tc.pad, tc.colpad)
			if err != nil {
				t.Fatal(err)
			}
			if p.Mode != tc.mode {
				t.Fatalf("plan selected %v, case covers %v", p.Mode, tc.mode)
			}
			kps := make([]*KernelPlan, len(kernels))
			for j := range kernels {
				if kps[j], err = p.PlanKernel(kernels[j]); err != nil {
					t.Fatal(err)
				}
			}
			op := &BatchConvOperands{Pos: pos, Neg: neg, KPos: kps[:nPos], KNeg: kps[nPos:]}
			var want [4][][]float64
			for term := range op.Accs {
				kset := op.kernelSetFor(term)
				op.Accs[term] = make([][]float64, n*len(kset))
				want[term] = make([][]float64, n*len(kset))
				for b := 0; b < n; b++ {
					rows := op.rowsOf(term/2, b)
					for j, kp := range kset {
						// Equal nonzero starting values check that the
						// executor adds into what the accumulator holds.
						acc := make([]float64, p.OutH*p.OutW)
						for i := range acc {
							acc[i] = rng.NormFloat64()
						}
						ref := append([]float64(nil), acc...)
						if rows != nil {
							if err := p.Conv2DPlannedAccum(rows, kp, ref); err != nil {
								t.Fatal(err)
							}
						}
						op.Accs[term][b*len(kset)+j], want[term][b*len(kset)+j] = acc, ref
					}
				}
			}
			shots0 := jtc.Shots()
			if err := p.Conv2DPlannedAccumBatch(op); err != nil {
				t.Fatal(err)
			}
			gotShots := jtc.Shots() - shots0
			// Pos: all 3 samples; Neg: samples 0 and 2.
			if wantShots := int64((p.PackedShots(n) + p.PackedShots(n-1)) * (nPos + nNeg)); gotShots != wantShots {
				t.Errorf("shot delta %d, packed schedule predicts %d", gotShots, wantShots)
			}
			for term, accs := range op.Accs {
				nk := len(op.kernelSetFor(term))
				for i, acc := range accs {
					for e := range acc {
						if math.Float64bits(acc[e]) != math.Float64bits(want[term][i][e]) {
							t.Fatalf("term %d sample %d kernel %d element %d: batch %v != single %v",
								term, i/nk, i%nk, e, acc[e], want[term][i][e])
						}
					}
				}
			}
		})
	}
}

// TestConv2DPlannedAccumBatchValidation covers the operand checks: every
// malformed operand fails before any shot is counted, and an empty batch is
// a no-op.
func TestConv2DPlannedAccumBatchValidation(t *testing.T) {
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
	rows := randPlane(rand.New(rand.NewSource(3)), 8, 8)
	narrow := append([][]float64(nil), rows...)
	narrow[5] = narrow[5][:7]
	acc := make([]float64, p.OutH*p.OutW)
	for _, tc := range []struct {
		name string
		op   BatchConvOperands
	}{
		{"foreign kernel plan", BatchConvOperands{Pos: [][][]float64{rows}, KPos: []*KernelPlan{kp, okp}, Accs: [4][][]float64{{acc, acc}}}},
		{"wrong accumulator count", BatchConvOperands{Pos: [][][]float64{rows}, KPos: []*KernelPlan{kp}, Accs: [4][][]float64{{acc, acc}}}},
		{"short accumulator", BatchConvOperands{Pos: [][][]float64{rows}, KPos: []*KernelPlan{kp}, Accs: [4][][]float64{{acc[:3]}}}},
		{"wrong-width input row", BatchConvOperands{Pos: [][][]float64{rows, narrow}, KPos: []*KernelPlan{kp}, Accs: [4][][]float64{{acc, acc}}}},
	} {
		shots0 := jtc.Shots()
		if err := p.Conv2DPlannedAccumBatch(&tc.op); err == nil {
			t.Errorf("%s: want an error", tc.name)
		}
		if d := jtc.Shots() - shots0; d != 0 {
			t.Errorf("%s: counted %d shots", tc.name, d)
		}
	}
	shots0 := jtc.Shots()
	if err := p.Conv2DPlannedAccumBatch(&BatchConvOperands{KPos: []*KernelPlan{kp}}); err != nil {
		t.Errorf("empty batch is a no-op, got %v", err)
	}
	if d := jtc.Shots() - shots0; d != 0 {
		t.Errorf("empty batch counted %d shots", d)
	}
}
