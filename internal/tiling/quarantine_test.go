package tiling

import (
	"errors"
	"math/rand"
	"testing"

	"photofourier/internal/fault"
	"photofourier/internal/jtc"
	"photofourier/internal/tensor"
)

// TestNewPlanAvoidingNilIsNewPlan: no dead slots (nil or out-of-range)
// reproduces NewPlan exactly — one live span spanning the whole capacity.
func TestNewPlanAvoidingNilIsNewPlan(t *testing.T) {
	want, err := NewPlan(16, 16, 3, 256, tensor.Same, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, dead := range [][]int{nil, {}, {want.capacitySlots(), 99999}} {
		got, err := NewPlanAvoiding(16, 16, 3, 256, tensor.Same, false, dead)
		if err != nil {
			t.Fatal(err)
		}
		if got.DeadSlots() != nil && len(got.DeadSlots()) != 0 {
			t.Fatalf("dead %v: quarantine retained out-of-range slots %v", dead, got.DeadSlots())
		}
		if got.PackedShots(5) != want.PackedShots(5) {
			t.Fatalf("dead %v: PackedShots %d != healthy %d", dead, got.PackedShots(5), want.PackedShots(5))
		}
	}
}

// quarantineCases are TestQuarantineSchedulesAroundDeadSlots' geometries
// and dead slots, which also seed FuzzBatchPlan.
var quarantineCases = []struct {
	h, w, k, nconv int
	pad            tensor.PadMode
	n              int
	dead           []int
}{
	{8, 8, 3, 256, tensor.Same, 5, []int{1, 2}},
	{8, 8, 3, 256, tensor.Same, 5, []int{0}},
	{12, 12, 3, 128, tensor.Valid, 4, []int{3}},
	{16, 16, 3, 512, tensor.Same, 8, []int{4, 5, 6}},
}

// TestQuarantineSchedulesAroundDeadSlots: with dead slots quarantined, no
// scheduled segment touches them, every output row is still covered, and
// the shot count never drops below the healthy aperture's
// (checkBatchSchedule).
func TestQuarantineSchedulesAroundDeadSlots(t *testing.T) {
	for _, tc := range quarantineCases {
		p, err := NewPlanAvoiding(tc.h, tc.w, tc.k, tc.nconv, tc.pad, false, tc.dead)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		checkBatchSchedule(t, p, tc.n)
	}
}

// TestQuarantineBatchPackingBitIdentical: the golden composition check for
// slot quarantine × aperture packing. A quarantined plan's batch executor
// must produce results bit-identical to healthy per-sample planned
// convolutions (dead slots reshape the shot schedule, never the math), its
// packed schedule must keep every segment off the dead slots, and the shot
// accounting must follow the quarantined plan's own packed count.
func TestQuarantineBatchPackingBitIdentical(t *testing.T) {
	cases := []struct {
		h, w, k, nconv int
		pad            tensor.PadMode
		n              int
		dead           []int
		colpad         bool
	}{
		{8, 8, 3, 256, tensor.Same, 5, []int{1, 2}, false},
		{12, 12, 3, 128, tensor.Valid, 4, []int{3}, false},
		{16, 16, 3, 512, tensor.Same, 8, []int{4, 5, 6}, false},
		// Column-padded Same: RowLen 12 > OutW 10, four shots of up to
		// three output rows each.
		{10, 10, 3, 64, tensor.Same, 4, []int{1}, true},
	}
	const nk = 3
	rng := rand.New(rand.NewSource(77))
	for _, tc := range cases {
		healthy, err := NewPlan(tc.h, tc.w, tc.k, tc.nconv, tc.pad, tc.colpad)
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewPlanAvoiding(tc.h, tc.w, tc.k, tc.nconv, tc.pad, tc.colpad, tc.dead)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		planes := make([][][]float64, tc.n)
		for b := range planes {
			planes[b] = make([][]float64, tc.h)
			for r := range planes[b] {
				planes[b][r] = make([]float64, tc.w)
				for c := range planes[b][r] {
					planes[b][r][c] = rng.NormFloat64()
				}
			}
		}
		kernels := make([][][]float64, nk)
		hkps := make([]*KernelPlan, nk)
		qkps := make([]*KernelPlan, nk)
		for j := range kernels {
			kernels[j] = make([][]float64, tc.k)
			for r := range kernels[j] {
				kernels[j][r] = make([]float64, tc.k)
				for c := range kernels[j][r] {
					kernels[j][r][c] = rng.NormFloat64()
				}
			}
			if hkps[j], err = healthy.PlanKernel(kernels[j]); err != nil {
				t.Fatal(err)
			}
			if qkps[j], err = q.PlanKernel(kernels[j]); err != nil {
				t.Fatal(err)
			}
		}
		// Oracle: healthy plan, per-sample planned convolutions.
		want := make([][]float64, tc.n*nk)
		for b := 0; b < tc.n; b++ {
			for j := 0; j < nk; j++ {
				want[b*nk+j] = make([]float64, healthy.OutH*healthy.OutW)
				if err := healthy.Conv2DPlannedAccum(planes[b:b+1], hkps[j:j+1], want[b*nk+j]); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Quarantined plan, batch executor over the packed schedule.
		accs := make([][]float64, tc.n*nk)
		for i := range accs {
			accs[i] = make([]float64, q.OutH*q.OutW)
		}
		op := &BatchConvOperands{Channels: 1, Pos: planes, KPos: qkps}
		op.Accs[0] = accs
		shots0 := jtc.Shots()
		if err := q.Conv2DPlannedAccumBatch(op); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if got, wantShots := jtc.Shots()-shots0, int64(q.PackedShots(tc.n)*nk); got != wantShots {
			t.Errorf("%+v: batch recorded %d shots, quarantined packing predicts %d", tc, got, wantShots)
		}
		for i := range accs {
			for e := range accs[i] {
				if accs[i][e] != want[i][e] {
					t.Fatalf("%+v: sample %d kernel %d element %d: quarantined batch %v != healthy per-sample %v",
						tc, i/nk, i%nk, e, accs[i][e], want[i][e])
				}
			}
		}
		// The packed schedule the batch ran on keeps off the dead slots.
		bp, err := q.PlanBatch(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		deadSet := map[int]bool{}
		for _, d := range tc.dead {
			deadSet[d] = true
		}
		for _, sh := range bp.Schedule() {
			for _, seg := range sh.Segments {
				for s := seg.Slot; s < seg.Slot+seg.Slots; s++ {
					if deadSet[s] {
						t.Fatalf("%+v: packed segment %+v crosses dead slot %d", tc, seg, s)
					}
				}
			}
		}
	}
}

// TestQuarantineUnusableAperture: a quarantine that fragments every live
// span below the minimal schedulable segment must fail at construction
// with ErrDeviceFault, not loop or mis-schedule later.
func TestQuarantineUnusableAperture(t *testing.T) {
	// 64-waveguide aperture, 8x8 k=3: few capacity slots; killing the
	// middle ones leaves no span that fits a row-tiling segment.
	_, err := NewPlanAvoiding(8, 8, 3, 64, tensor.Same, false, []int{1, 2, 3, 4})
	if err == nil {
		t.Fatal("fragmented aperture accepted")
	}
	if !errors.Is(err, fault.ErrDeviceFault) {
		t.Fatalf("err %v does not wrap fault.ErrDeviceFault", err)
	}
	// Partial row tiling loads every capacity slot per shot, so ANY dead
	// slot makes the aperture unusable in that regime.
	_, err = NewPlanAvoiding(10, 16, 3, 40, tensor.Valid, false, []int{0})
	if !errors.Is(err, fault.ErrDeviceFault) {
		t.Fatalf("partial-row-tiling quarantine: err %v, want ErrDeviceFault", err)
	}
}

// TestQuarantineRowPartitioningIgnored: row-partitioning geometries have no
// slot grid (the aperture is smaller than a row), so dead tile slots are
// filtered out and the plan still works.
func TestQuarantineRowPartitioningIgnored(t *testing.T) {
	p, err := NewPlanAvoiding(6, 40, 3, 16, tensor.Valid, false, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != RowPartitioning {
		t.Fatalf("geometry did not select RowPartitioning: %v", p.Mode)
	}
	if len(p.DeadSlots()) != 0 {
		t.Fatalf("row partitioning retained dead slots %v", p.DeadSlots())
	}
}
