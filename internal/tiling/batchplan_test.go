package tiling

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"photofourier/internal/fault"
	"photofourier/internal/tensor"
)

func mustBatch(t *testing.T, p *Plan, n int) *BatchPlan {
	t.Helper()
	bp, err := p.PlanBatch(n)
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

// batchPlanCases are TestBatchPlanScheduleValid's geometries, which also
// seed FuzzBatchPlan.
var batchPlanCases = []struct {
	h, w, k, nconv int
	pad            tensor.PadMode
	colPad         bool
	n              int
}{
	{16, 16, 3, 256, tensor.Same, false, 5},
	{16, 16, 3, 256, tensor.Same, true, 5},
	{12, 12, 3, 128, tensor.Valid, false, 4},
	{10, 16, 3, 40, tensor.Valid, false, 4}, // partial row tiling
	{10, 10, 5, 30, tensor.Same, false, 3},  // partial, Same
	{6, 40, 3, 16, tensor.Valid, false, 2},  // row partitioning
	{32, 32, 3, 256, tensor.Same, false, 8}, // SmallCNN conv1 geometry
	{16, 16, 3, 256, tensor.Same, false, 8}, // SmallCNN conv2 geometry
	{33, 33, 5, 256, tensor.Same, false, 3}, // odd size, k=5
	{3, 47, 6, 21, tensor.Same, true, 2},    // row partitioning, Same: out-of-input kernel rows skipped
}

// TestBatchPlanScheduleValid checks the structural invariants of the
// packed schedule (checkBatchSchedule) across all three regimes on a
// healthy aperture, and that packing costs no efficiency against
// per-sample execution.
func TestBatchPlanScheduleValid(t *testing.T) {
	for _, tc := range batchPlanCases {
		p, err := NewPlan(tc.h, tc.w, tc.k, tc.nconv, tc.pad, tc.colPad)
		if err != nil {
			t.Fatal(err)
		}
		bp := checkBatchSchedule(t, p, tc.n)
		if bp.Efficiency()+1e-12 < p.Efficiency() {
			t.Errorf("%+v: packed efficiency %v below per-sample %v", tc, bp.Efficiency(), p.Efficiency())
		}
	}
}

// checkBatchSchedule checks the packed schedule of n samples on p and
// returns it: the count-only PackedShots agrees with the materialized
// schedule; Plan.Efficiency, BatchPlan.Efficiency and Utilization lie in
// (0, 1]; a healthy aperture packs no more shots than n per-sample runs,
// and a quarantined one no fewer than the healthy aperture's packing; and
// (except under row partitioning, which materializes no schedule)
// segments stay within the aperture's capacity, never overlap, keep the
// Same-mode gap, stay off the dead slots, and cover every sample's output
// rows exactly once per accumulation pass.
func checkBatchSchedule(t *testing.T, p *Plan, n int) *BatchPlan {
	t.Helper()
	name := fmt.Sprintf("%dx%d k%d NConv %d %v colpad=%v n=%d dead %v", p.H, p.W, p.K, p.NConv, p.Pad, p.ColumnPad, n, p.DeadSlots())
	bp := mustBatch(t, p, n)
	if got, want := bp.Shots(), p.PackedShots(n); got != want {
		t.Errorf("%s: BatchPlan.Shots %d != PackedShots %d", name, got, want)
	}
	for _, m := range []struct {
		what string
		v    float64
	}{{"Plan.Efficiency", p.Efficiency()}, {"BatchPlan.Efficiency", bp.Efficiency()}, {"Utilization", bp.Utilization()}} {
		if m.v <= 0 || m.v > 1+1e-12 {
			t.Errorf("%s: %s %v out of (0, 1]", name, m.what, m.v)
		}
	}
	if len(p.DeadSlots()) == 0 {
		if bp.Shots() > bp.UnpackedShots() {
			t.Errorf("%s: packed %d exceeds unpacked %d", name, bp.Shots(), bp.UnpackedShots())
		}
	} else {
		healthy, err := NewPlan(p.H, p.W, p.K, p.NConv, p.Pad, p.ColumnPad)
		if err != nil {
			t.Fatal(err)
		}
		if bp.Shots() < healthy.PackedShots(n) {
			t.Errorf("%s: quarantined aperture packs %d shots, below healthy %d", name, bp.Shots(), healthy.PackedShots(n))
		}
	}
	if p.Mode == RowPartitioning {
		return bp // no materialized schedule
	}
	capSlots := p.capacitySlots()
	gap := p.segmentGapSlots()
	dead := map[int]bool{}
	for _, d := range p.DeadSlots() {
		dead[d] = true
	}
	covered := map[int]int{} // sample -> rows covered
	for _, sh := range bp.Schedule() {
		if sh.SlotsUsed > capSlots {
			t.Fatalf("%s: shot uses %d of %d slots", name, sh.SlotsUsed, capSlots)
		}
		segs := slices.Clone(sh.Segments)
		slices.SortFunc(segs, func(a, b BatchSegment) int { return a.Slot - b.Slot })
		prevEnd := -1
		for _, seg := range segs {
			if seg.Slot < 0 || seg.Slot+seg.Slots > capSlots {
				t.Fatalf("%s: segment %+v outside capacity %d", name, seg, capSlots)
			}
			if prevEnd >= 0 && seg.Slot < prevEnd+gap {
				t.Fatalf("%s: segment %+v overlaps or violates gap %d after %d", name, seg, gap, prevEnd)
			}
			prevEnd = seg.Slot + seg.Slots
			for s := seg.Slot; s < prevEnd; s++ {
				if dead[s] {
					t.Fatalf("%s: segment %+v lands on dead slot %d", name, seg, s)
				}
			}
			covered[seg.Sample] += seg.Rows
		}
	}
	wantRows := p.OutH
	if p.Mode == PartialRowTiling {
		// Every output row recurs once per accumulation pass.
		wantRows = p.OutH * ceilDiv(p.K, p.RowsPerShot)
	}
	for s := 0; s < n; s++ {
		if covered[s] != wantRows {
			t.Errorf("%s: sample %d covers %d of %d output rows", name, s, covered[s], wantRows)
		}
	}
	return bp
}

// FuzzBatchPlan checks the packed schedule (checkBatchSchedule) over
// generated geometries: input size, kernel size, aperture (NConv from K
// up, so every regime occurs), padding, column padding, batch size and a
// set of dead slots (the bits of dead) quarantined through
// NewPlanAvoiding. The one error it accepts is an aperture too
// fragmented to schedule, which wraps fault.ErrDeviceFault. Its seeds are
// TestBatchPlanScheduleValid's and TestQuarantineSchedulesAroundDeadSlots'
// cases.
func FuzzBatchPlan(f *testing.F) {
	for _, tc := range batchPlanCases {
		f.Add(uint8(tc.h), uint8(tc.w), uint8(tc.k), uint16(tc.nconv), tc.pad == tensor.Same, tc.colPad, uint8(tc.n), uint64(0))
	}
	for _, tc := range quarantineCases {
		var dead uint64
		for _, d := range tc.dead {
			dead |= 1 << d
		}
		f.Add(uint8(tc.h), uint8(tc.w), uint8(tc.k), uint16(tc.nconv), tc.pad == tensor.Same, false, uint8(tc.n), dead)
	}
	f.Fuzz(func(t *testing.T, h, w, k uint8, nconv uint16, same, colPad bool, n uint8, dead uint64) {
		hh, ww := 1+int(h-1)%48, 1+int(w-1)%48
		pad := tensor.Valid
		kk := 1 + int(k-1)%min(hh, ww, 9)
		if same {
			pad = tensor.Same
			kk = 1 + int(k-1)%9
		}
		nc := kk + int(nconv)%1024
		var slots []int
		for d := 0; d < 64; d++ {
			if dead>>d&1 == 1 {
				slots = append(slots, d)
			}
		}
		p, err := NewPlanAvoiding(hh, ww, kk, nc, pad, colPad, slots)
		if err != nil {
			if !errors.Is(err, fault.ErrDeviceFault) {
				t.Fatalf("%dx%d k%d NConv %d %v colpad=%v dead %v: %v", hh, ww, kk, nc, pad, colPad, slots, err)
			}
			return
		}
		checkBatchSchedule(t, p, 1+int(n-1)%17)
	})
}

// TestBatchPlanPacksSlack pins the packing wins the scheduler exists for:
// leftover row-tiles share shots in Same mode, and flexible chunking packs
// Valid-mode apertures tightly.
func TestBatchPlanPacksSlack(t *testing.T) {
	// Same mode, 16x16/k3/NConv 256: per sample one full shot (14 rows)
	// plus a 2-row leftover; three leftovers share one packed shot.
	p, err := NewPlan(16, 16, 3, 256, tensor.Same, false)
	if err != nil {
		t.Fatal(err)
	}
	bp := mustBatch(t, p, 8)
	if bp.Shots() >= bp.UnpackedShots() {
		t.Errorf("Same-mode leftovers did not pack: %d vs %d", bp.Shots(), bp.UnpackedShots())
	}
	// Valid mode packs flexibly chunked segments.
	pv, err := NewPlan(12, 12, 3, 128, tensor.Valid, false)
	if err != nil {
		t.Fatal(err)
	}
	bpv := mustBatch(t, pv, 4)
	if bpv.Shots() >= bpv.UnpackedShots() {
		t.Errorf("Valid-mode flexible chunking did not pack: %d vs %d", bpv.Shots(), bpv.UnpackedShots())
	}
	if bpv.Utilization() <= bp.Utilization()-1 {
		t.Errorf("implausible utilizations: %v %v", bpv.Utilization(), bp.Utilization())
	}
}

// TestEfficiencyColumnPadDenominator covers the columnPad edge of the
// corrected efficiency metric: the padded plan's longer kernel tile must
// enter the denominator, making column padding strictly less efficient
// than the plain plan on the same geometry — and both must stay in (0,1].
func TestEfficiencyColumnPadDenominator(t *testing.T) {
	plain, err := NewPlan(16, 16, 3, 256, tensor.Same, false)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := NewPlan(16, 16, 3, 256, tensor.Same, true)
	if err != nil {
		t.Fatal(err)
	}
	ep, ec := plain.Efficiency(), padded.Efficiency()
	if ep <= 0 || ep > 1 || ec <= 0 || ec > 1 {
		t.Fatalf("efficiencies out of range: plain %v colpad %v", ep, ec)
	}
	if ec >= ep {
		t.Errorf("column padding should cost efficiency: colpad %v >= plain %v", ec, ep)
	}
	// The denominator counts the full 1D output: shots * (NConv + LK - 1).
	lk := (plain.K-1)*plain.RowLen + plain.K
	want := float64(plain.OutH*plain.OutW) / (float64(plain.Shots()) * float64(plain.NConv+lk-1))
	if ep != want {
		t.Errorf("plain efficiency %v, want %v", ep, want)
	}
}
