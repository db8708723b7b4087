package tiling

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"photofourier/internal/fourier"
	"photofourier/internal/jtc"
	"photofourier/internal/tensor"
)

// TestConv2DPlannedAccumBatchMatchesSingle runs the packed batch executor in
// every tiling regime with many kernels of both weight signs, over
// accumulation groups of one and of three channels and samples that carry
// different activation parts, and over more samples than one lockstep
// chunk holds. Batches of 8, 9, 16 and 17 samples hold full chunks: in the
// first chunk sample 1 lacks the negative part, so that part takes the
// lane path while the positive part takes the full-chunk path, and later
// full chunks take it for both parts; one of their accumulators is nil.
// Every (term, sample, kernel) accumulator starts out holding garbage
// (NaN among it) and must end equal, bit for bit, to the grouped
// Conv2DPlannedAccum of that (sample, kernel) pair into a zeroed
// accumulator: the executor's first-writer windows store each entry before
// later shots add. Accumulators of a sample without the term's part must
// stay untouched, and the shot counter must advance by the packed
// schedule of each part's present samples times the (kernel, channel)
// pair count.
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
	const h, w, k = 14, 14, 3
	const nPos, nNeg = 5, 3 // kernels per weight sign
	rng := rand.New(rand.NewSource(21))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, shape := range []struct{ n, g int }{
				{3, 1}, {3, 3}, {fourier.LockstepWidth + 2, 2},
				{fourier.LockstepWidth, 2}, {fourier.LockstepWidth + 1, 1},
				{2 * fourier.LockstepWidth, 3}, {2*fourier.LockstepWidth + 1, 2},
			} {
				t.Run(fmt.Sprintf("n%d-channels%d", shape.n, shape.g), func(t *testing.T) {
					n, g := shape.n, shape.g
					p, err := NewPlan(h, w, k, tc.nconv, tc.pad, tc.colpad)
					if err != nil {
						t.Fatal(err)
					}
					if p.Mode != tc.mode {
						t.Fatalf("plan selected %v, case covers %v", p.Mode, tc.mode)
					}
					pos := make([][][]float64, n*g)
					neg := make([][][]float64, n*g)
					for i := range pos {
						pos[i] = randPlane(rng, h, w)
						if i/g != 1 { // sample 1 has no negative part
							neg[i] = randPlane(rng, h, w)
						}
					}
					kps := make([]*KernelPlan, (nPos+nNeg)*g)
					for j := range kps {
						if kps[j], err = p.PlanKernel(randPlane(rng, k, k)); err != nil {
							t.Fatal(err)
						}
					}
					op := &BatchConvOperands{Channels: g, Pos: pos, Neg: neg, KPos: kps[:nPos*g], KNeg: kps[nPos*g:]}
					var want [4][][]float64
					for term := range op.Accs {
						kset := op.kernelSetFor(term)
						nk := len(kset) / g
						op.Accs[term] = make([][]float64, n*nk)
						want[term] = make([][]float64, n*nk)
						for b := 0; b < n; b++ {
							planes := neg[b*g : (b+1)*g]
							if term < 2 {
								planes = pos[b*g : (b+1)*g]
							}
							for j := 0; j < nk; j++ {
								acc := make([]float64, p.OutH*p.OutW)
								for i := range acc {
									acc[i] = rng.NormFloat64()
									if i%7 == 3 {
										acc[i] = math.NaN()
									}
								}
								ref := append([]float64(nil), acc...)
								if planes[0] != nil {
									clear(ref)
									if err := p.Conv2DPlannedAccum(planes, kset[j*g:(j+1)*g], ref); err != nil {
										t.Fatal(err)
									}
								}
								if n >= fourier.LockstepWidth && term == 0 && b == 9%n && j == 1 {
									acc, ref = nil, nil // skipped by the executor
								}
								op.Accs[term][b*nk+j], want[term][b*nk+j] = acc, ref
							}
						}
					}
					shots0 := jtc.Shots()
					if err := p.Conv2DPlannedAccumBatch(op); err != nil {
						t.Fatal(err)
					}
					gotShots := jtc.Shots() - shots0
					// Pos: all n samples; Neg: all but sample 1.
					if wantShots := int64((p.PackedShots(n) + p.PackedShots(n-1)) * (nPos + nNeg) * g); gotShots != wantShots {
						t.Errorf("shot delta %d, packed schedule predicts %d", gotShots, wantShots)
					}
					for term, accs := range op.Accs {
						nk := len(op.kernelSetFor(term)) / g
						for i, acc := range accs {
							for e := range acc {
								if math.Float64bits(acc[e]) != math.Float64bits(want[term][i][e]) {
									t.Fatalf("term %d sample %d kernel %d element %d: batch %v != grouped scalar %v",
										term, i/nk, i%nk, e, acc[e], want[term][i][e])
								}
							}
						}
					}
				})
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
		{"foreign kernel plan", BatchConvOperands{Channels: 1, Pos: [][][]float64{rows}, KPos: []*KernelPlan{kp, okp}, Accs: [4][][]float64{{acc, acc}}}},
		{"wrong accumulator count", BatchConvOperands{Channels: 1, Pos: [][][]float64{rows}, KPos: []*KernelPlan{kp}, Accs: [4][][]float64{{acc, acc}}}},
		{"short accumulator", BatchConvOperands{Channels: 1, Pos: [][][]float64{rows}, KPos: []*KernelPlan{kp}, Accs: [4][][]float64{{acc[:3]}}}},
		{"wrong-width input row", BatchConvOperands{Channels: 1, Pos: [][][]float64{rows, narrow}, KPos: []*KernelPlan{kp}, Accs: [4][][]float64{{acc, acc}}}},
		{"no channels", BatchConvOperands{Pos: [][][]float64{rows}, KPos: []*KernelPlan{kp}, Accs: [4][][]float64{{acc}}}},
		{"planes not whole samples", BatchConvOperands{Channels: 2, Pos: [][][]float64{rows, rows, rows}, KPos: []*KernelPlan{kp, kp}, Accs: [4][][]float64{{acc, acc}}}},
		{"kernel plans not whole kernels", BatchConvOperands{Channels: 2, Pos: [][][]float64{rows, rows}, KPos: []*KernelPlan{kp, kp, kp}, Accs: [4][][]float64{{acc}}}},
		{"part on some channels only", BatchConvOperands{Channels: 2, Pos: [][][]float64{rows, nil}, KPos: []*KernelPlan{kp, kp}, Accs: [4][][]float64{{acc}}}},
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
	if err := p.Conv2DPlannedAccumBatch(&BatchConvOperands{Channels: 1, KPos: []*KernelPlan{kp}}); err != nil {
		t.Errorf("empty batch is a no-op, got %v", err)
	}
	if d := jtc.Shots() - shots0; d != 0 {
		t.Errorf("empty batch counted %d shots", d)
	}
}
