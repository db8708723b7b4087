// Batch shot scheduling: the aperture-packing layer of batch execution.
//
// A per-sample plan leaves aperture slack empty — most visibly in a
// sample's LAST row-tiled shot, which carries fewer valid output rows than
// a full shot but still occupies the whole aperture. When a batch of
// samples runs the same plane geometry, that slack can host tiles from the
// NEXT sample (or a sample's leftover row-tiles): throughput then scales
// with how densely the aperture is packed, not with how many convolutions
// were requested — the packed-JTC utilization the paper's joint transform
// is built around.
//
// Packing is exact, not approximate, because an ideal correlator is linear
// and the valid output windows of distinct segments read disjoint parts of
// the aperture. Two rules keep the packed windows equal to the per-sample
// ones bit for bit:
//
//   - A segment occupies nOut + K - 1 tile slots (its valid output rows
//     plus the K-1 trailing rows they correlate against), matching the
//     rows its per-sample shot loads ahead of it.
//   - In plain Same mode (no column padding) the edge effect lets an
//     output row's boundary columns peek up to SamePad(K) positions into
//     the neighboring slots, which per-sample execution guarantees to be
//     zeros; packed segments therefore keep a zero gap of
//     ceil(max(padL, padR)/RowLen) slots between one another. Valid mode
//     and column-padded Same mode have no edge leak and pack back to back.
//
// The software executor computes every segment's correlation through the
// same per-sample transform (bit-identity with the per-sample oracle); the
// BatchPlan is the hardware occupancy model — its packed shot count feeds
// jtc.AddShots and the utilization statistics.
package tiling

import (
	"fmt"

	"photofourier/internal/tensor"
)

// BatchSegment is one sample's contiguous run of tile slots within a
// packed shot.
type BatchSegment struct {
	// Sample is the batch index the segment belongs to.
	Sample int
	// Pass identifies the kernel tile the shot correlates against
	// (accumulation pass for partial row tiling; 0 for row tiling).
	Pass int
	// RowOut is the first 2D output row the segment carries.
	RowOut int
	// Rows is the number of valid output rows carried.
	Rows int
	// Slot is the first aperture tile slot the segment occupies.
	Slot int
	// Slots is the number of tile slots occupied (Rows + K - 1 for row
	// tiling; the pass's loaded rows for partial row tiling).
	Slots int
}

// BatchShot is one packed aperture illumination: every segment shares the
// 1D aperture and is correlated against the same latched kernel tile.
type BatchShot struct {
	// Pass is the kernel tile index all segments correlate against.
	Pass int
	// Segments lists the packed segments in slot order.
	Segments []BatchSegment
	// SlotsUsed counts occupied tile slots (segments plus mandatory gaps).
	SlotsUsed int
}

// BatchPlan is the packed shot schedule of n same-geometry plane
// convolutions. It is read-only after construction.
type BatchPlan struct {
	p *Plan
	// N is the number of samples scheduled.
	N int
	// Shots is the packed schedule; empty for row partitioning, which has
	// no slot-granular slack to pack (Shots() falls back to the per-sample
	// count).
	shots []BatchShot
}

// PlanBatch schedules the shots of n same-geometry plane convolutions with
// aperture packing. n must be >= 1.
func (p *Plan) PlanBatch(n int) (*BatchPlan, error) {
	if n < 1 {
		return nil, fmt.Errorf("tiling: batch of %d samples", n)
	}
	bp := &BatchPlan{p: p, N: n}
	switch p.Mode {
	case RowTiling:
		bp.packRowTiled()
	case PartialRowTiling:
		bp.packPartial()
	default:
		// Row partitioning fills the aperture with single-row segments
		// already; no slot-granular slack to pack.
	}
	return bp, nil
}

// capacitySlots is the number of RowLen-sized tile slots one aperture
// holds.
func (p *Plan) capacitySlots() int { return p.NConv / p.RowLen }

// packRowTiled packs row-tiled segments first-fit in (sample, row-chunk)
// order through the shared schedule simulation.
func (bp *BatchPlan) packRowTiled() {
	bp.p.rowTiledSchedule(bp.N, func(shot int, seg BatchSegment) {
		for shot >= len(bp.shots) {
			bp.shots = append(bp.shots, BatchShot{})
		}
		cur := &bp.shots[shot]
		cur.Segments = append(cur.Segments, seg)
		if end := seg.Slot + seg.Slots; end > cur.SlotsUsed {
			cur.SlotsUsed = end
		}
	})
}

// rowTiledSchedule runs the row-tiling first-fit packing simulation,
// invoking emit (when non-nil) for every scheduled segment, and returns the
// packed shot count.
//
// Chunking is mode-dependent. Valid mode and column-padded Same mode
// compute exact 2D convolutions for ANY row chunking, so segments split
// flexibly to fill each aperture's remaining slots — including a sample's
// leftover row-tiles riding in another sample's shot. Plain Same mode must
// reproduce the per-sample edge effect bit for bit, so its segments keep
// the per-sample Nor-row chunking (and zero gaps); only last-chunk slack
// can host further samples' segments.
func (p *Plan) rowTiledSchedule(n int, emit func(shot int, seg BatchSegment)) int {
	spans := p.schedSpans()
	gap := p.segmentGapSlots()
	flexible := p.Pad != tensor.Same || p.ColumnPad
	maxSpan := 0
	for _, sp := range spans {
		if sp.n > maxSpan {
			maxSpan = sp.n
		}
	}
	// Each span fills contiguously from its start; a healthy aperture is the
	// single span [0, capacitySlots), reducing exactly to whole-aperture
	// first-fit.
	var used [][]int // per open shot, per span: slots used
	// place finds the first (shot, span) with room for `slots` more (plus
	// the gap when the span already holds a segment), opening a new shot
	// when none fits.
	place := func(slots int) (shot, slot int) {
		for i, shotUsed := range used {
			for j, u := range shotUsed {
				need := slots
				if u > 0 {
					need += gap
				}
				if u+need <= spans[j].n {
					at := u
					if u > 0 {
						at += gap
					}
					shotUsed[j] = at + slots
					return i, spans[j].start + at
				}
			}
		}
		row := make([]int, len(spans))
		j := 0
		for spans[j].n < slots {
			j++
		}
		row[j] = slots
		used = append(used, row)
		return len(used) - 1, spans[j].start
	}
	// avail reports the slots the next segment can occupy: the free run of
	// the first (shot, span) that still fits a minimal segment, else the
	// largest span of a fresh aperture (flexible chunking sizes segments to
	// fit).
	avail := func() int {
		for _, shotUsed := range used {
			for j, u := range shotUsed {
				free := spans[j].n - u
				if u > 0 {
					free -= gap
				}
				if free >= p.K {
					return free
				}
			}
		}
		return maxSpan
	}
	for s := 0; s < n; s++ {
		r0 := 0
		for r0 < p.OutH {
			take := p.OutH - r0
			if flexible {
				if m := avail() - (p.K - 1); take > m {
					take = m
				}
			} else if take > p.Nor {
				take = p.Nor
			}
			slots := take + p.K - 1
			shot, slot := place(slots)
			if emit != nil {
				emit(shot, BatchSegment{Sample: s, RowOut: r0, Rows: take, Slot: slot, Slots: slots})
			}
			r0 += take
		}
	}
	return len(used)
}

// packPartial packs partial-row-tiling segments per accumulation pass (only
// same-pass segments share a latched kernel tile): each (sample, output
// row) pair contributes one segment of the pass's loaded-row count.
func (bp *BatchPlan) packPartial() {
	p := bp.p
	spans := p.schedSpans()
	gap := p.segmentGapSlots()
	passes := ceilDiv(p.K, p.RowsPerShot)
	for pass := 0; pass < passes; pass++ {
		nRows := min(p.RowsPerShot, p.K-pass*p.RowsPerShot)
		var cur *BatchShot
		si, used := 0, 0 // fill position within the current shot: span index, slots used in it
		for s := 0; s < bp.N; s++ {
			for r := 0; r < p.OutH; r++ {
				placed := false
				for cur != nil && si < len(spans) {
					need, at := nRows, spans[si].start+used
					if used > 0 {
						need += gap
						at += gap
					}
					if used+need <= spans[si].n {
						cur.Segments = append(cur.Segments, BatchSegment{
							Sample: s, Pass: pass, RowOut: r, Rows: 1, Slot: at, Slots: nRows,
						})
						used = at - spans[si].start + nRows
						if end := at + nRows; end > cur.SlotsUsed {
							cur.SlotsUsed = end
						}
						placed = true
						break
					}
					si, used = si+1, 0
				}
				if placed {
					continue
				}
				bp.shots = append(bp.shots, BatchShot{Pass: pass})
				cur = &bp.shots[len(bp.shots)-1]
				si, used = 0, 0
				for spans[si].n < nRows {
					si++
				}
				cur.Segments = append(cur.Segments, BatchSegment{
					Sample: s, Pass: pass, RowOut: r, Rows: 1, Slot: spans[si].start, Slots: nRows,
				})
				used = nRows
				cur.SlotsUsed = spans[si].start + nRows
			}
		}
	}
}

// segmentGapSlots is the zero-slot spacing between packed segments (see the
// package comment's exactness rules).
func (p *Plan) segmentGapSlots() int {
	if p.Pad != tensor.Same || p.ColumnPad {
		return 0
	}
	reach := p.padL
	if r := p.K - 1 - p.padL; r > reach {
		reach = r
	}
	if reach == 0 {
		return 0
	}
	return ceilDiv(reach, p.RowLen)
}

// Shots returns the packed shot count for the whole batch (one plane
// convolution per sample against one kernel). It always equals
// PackedShots(N) — row partitioning, which packs nothing, falls back to
// the same executed per-sample count.
func (bp *BatchPlan) Shots() int {
	if len(bp.shots) > 0 {
		return len(bp.shots)
	}
	return bp.p.PackedShots(bp.N)
}

// UnpackedShots returns the shot count N independent single-kernel plane
// convolutions issue (Shots per plane and kernel, which
// Conv2DPlannedAccum and so the unplanned oracle count): the baseline
// Shots is measured against. Planned runs count the packed schedule even at
// N = 1; on a healthy aperture that differs from this only under partial
// row tiling, where one sample's short passes pack.
func (bp *BatchPlan) UnpackedShots() int { return bp.N * bp.p.Shots() }

// Schedule returns the packed shots (nil for row partitioning, which packs
// nothing).
func (bp *BatchPlan) Schedule() []BatchShot { return bp.shots }

// Efficiency returns the packed computation efficiency: the fraction of 1D
// output samples across the packed schedule that are valid 2D outputs —
// Plan.Efficiency's metric with the packed shot count in the denominator.
func (bp *BatchPlan) Efficiency() float64 {
	p := bp.p
	if p.Mode == RowPartitioning {
		return p.Efficiency() // nothing packs; the per-sample metric stands
	}
	counts := make([]int, p.passes())
	for _, sh := range bp.shots {
		counts[sh.Pass]++
	}
	return p.efficiencyFor(func(pass int) int { return counts[pass] }, float64(bp.N*p.OutH*p.OutW))
}

// Utilization returns the fraction of aperture tile slots the packed
// schedule occupies (1 would be a perfectly full aperture on every shot);
// for row partitioning it reports the per-sample plan's utilization of the
// raw aperture.
func (bp *BatchPlan) Utilization() float64 {
	if len(bp.shots) == 0 {
		return bp.p.Efficiency()
	}
	cap := bp.p.capacitySlots()
	if cap == 0 {
		return 0
	}
	used := 0
	for _, sh := range bp.shots {
		used += sh.SlotsUsed
	}
	return float64(used) / float64(len(bp.shots)*cap)
}
