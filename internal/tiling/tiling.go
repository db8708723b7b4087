// Package tiling implements the paper's row tiling/partitioning algorithm
// (PhotoFourier Sec. III): computing 2D convolutions with the 1D convolutions
// an on-chip JTC provides. Rows of the 2D input and kernel are tiled into 1D
// signals such that a single 1D cross-correlation produces several valid 2D
// output rows at once.
//
// Three regimes exist, selected by the relation between the maximum 1D
// convolution size NConv, the row length W, and the kernel size K:
//
//   - Row tiling (NConv >= K*W): several full output rows per 1D conv.
//   - Partial row tiling (W <= NConv < K*W): one output row needs
//     ceil(K/RowsPerShot) accumulation passes.
//   - Row partitioning (NConv < W): a single row is split into segments.
//
// Row-tiled results equal 2D convolution exactly in Valid mode. In Same mode
// they differ only at row edges (the "edge effect", Fig. 3e) unless column
// zero-padding is enabled, which restores exactness at a utilization cost.
package tiling

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"photofourier/internal/buf"
	"photofourier/internal/fault"
	"photofourier/internal/fourier"
	"photofourier/internal/jtc"
	"photofourier/internal/tensor"
)

// Mode identifies which of the three tiling regimes a plan uses.
type Mode int

const (
	// RowTiling tiles several input rows per 1D convolution and produces
	// Nor complete output rows per shot.
	RowTiling Mode = iota
	// PartialRowTiling tiles fewer than K rows per shot; partial sums for
	// one output row accumulate over multiple shots.
	PartialRowTiling
	// RowPartitioning splits single rows into segments because the 1D
	// convolution is shorter than one row.
	RowPartitioning
)

func (m Mode) String() string {
	switch m {
	case RowTiling:
		return "row-tiling"
	case PartialRowTiling:
		return "partial-row-tiling"
	case RowPartitioning:
		return "row-partitioning"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Correlator computes the full 1D cross-correlation of a signal with a
// kernel: the result has length len(signal)+len(kernel)-1, and shift m
// (kernel start aligned with signal index m) lives at index m+len(kernel)-1.
// fourier.CrossCorrelate satisfies this contract.
//
// The signal slice is a pooled buffer the plan rewrites between shots: a
// Correlator must read it during the call and not retain it afterwards.
type Correlator func(signal, kernel []float64) []float64

// Plan describes how one (H, W, K, NConv) convolution maps onto 1D shots.
type Plan struct {
	H, W  int // input spatial size (H rows of length W)
	K     int // square kernel size
	NConv int // maximum 1D convolution size supported by the hardware

	Pad       tensor.PadMode // 2D semantics to reproduce (Same or Valid)
	ColumnPad bool           // zero-pad rows to eliminate the edge effect

	Mode        Mode
	RowLen      int // length of one tiled row (W, or W+K-1 when ColumnPad)
	RowsPerShot int // input rows loaded per shot (Nir in the paper)
	Nor         int // valid output rows per shot (row tiling only)
	OutH, OutW  int // 2D output size
	padT, padL  int // top/left zero padding implied by Same mode

	// deadSlots lists quarantined aperture tile slots, sorted (empty when
	// the aperture is healthy); liveSpans are the maximal usable runs the
	// batch packer schedules segments into (see NewPlanAvoiding). Both are
	// read-only after construction.
	deadSlots []int
	liveSpans []liveSpan

	// packedShots memoizes PackedShots per batch size (the batch executor
	// reads it once per input channel).
	packedMu    sync.Mutex
	packedShots map[int]int
}

// liveSpan is one maximal run of usable tile slots between quarantined
// ones.
type liveSpan struct{ start, n int }

// schedSpans returns the live spans the packer schedules into: the
// quarantine-derived spans, or the whole slot grid when the aperture is
// healthy.
func (p *Plan) schedSpans() []liveSpan {
	if len(p.liveSpans) > 0 {
		return p.liveSpans
	}
	return []liveSpan{{0, p.capacitySlots()}}
}

// DeadSlots returns the quarantined tile slots the plan schedules around
// (nil for a healthy aperture; read-only).
func (p *Plan) DeadSlots() []int { return p.deadSlots }

// loadPackedShots returns the cached packed shot count for batch size n, or
// -1 when not yet computed.
func (p *Plan) loadPackedShots(n int) int {
	p.packedMu.Lock()
	defer p.packedMu.Unlock()
	if v, ok := p.packedShots[n]; ok {
		return v
	}
	return -1
}

func (p *Plan) storePackedShots(n, shots int) {
	p.packedMu.Lock()
	defer p.packedMu.Unlock()
	if p.packedShots == nil {
		p.packedShots = make(map[int]int)
	}
	p.packedShots[n] = shots
}

// NewPlan validates the geometry and selects the tiling regime.
func NewPlan(h, w, k, nconv int, pad tensor.PadMode, columnPad bool) (*Plan, error) {
	if h < 1 || w < 1 {
		return nil, fmt.Errorf("tiling: input %dx%d must be positive", h, w)
	}
	if k < 1 {
		return nil, fmt.Errorf("tiling: kernel size %d must be positive", k)
	}
	if nconv < 1 {
		return nil, fmt.Errorf("tiling: NConv %d must be positive", nconv)
	}
	if pad == tensor.Valid && (k > h || k > w) {
		return nil, fmt.Errorf("tiling: %dx%d kernel does not fit %dx%d input in valid mode", k, k, h, w)
	}
	p := &Plan{H: h, W: w, K: k, NConv: nconv, Pad: pad, ColumnPad: columnPad}
	if pad == tensor.Same {
		p.padT = tensor.SamePad(k)
		p.padL = tensor.SamePad(k)
		p.OutH, p.OutW = h, w
	} else {
		p.OutH, p.OutW = h-k+1, w-k+1
	}
	p.RowLen = w
	if columnPad && pad == tensor.Same {
		p.RowLen = w + k - 1
	}
	if k > nconv {
		return nil, fmt.Errorf("tiling: kernel row of %d exceeds NConv %d; partition the kernel first", k, nconv)
	}
	switch {
	case nconv >= k*p.RowLen:
		p.Mode = RowTiling
		p.RowsPerShot = nconv / p.RowLen
		p.Nor = p.RowsPerShot - k + 1
	case nconv >= p.RowLen:
		p.Mode = PartialRowTiling
		p.RowsPerShot = nconv / p.RowLen
		p.Nor = 0
	default:
		p.Mode = RowPartitioning
		p.RowsPerShot = 0
		p.Nor = 0
	}
	return p, nil
}

// NewPlanAvoiding is NewPlan with dead aperture tile slots quarantined: the
// batch packer (PlanBatch / PackedShots) schedules segments only into the
// remaining live slot spans, trading shots for correctness on a degraded
// device. Quarantined slots are dark — they load no light and read as
// zeros — so they both bound segments and count toward the zero separation
// plain-Same packing keeps between segments. Dead indices at or beyond the
// slot grid (including every index when the mode is row partitioning,
// whose aperture holds no whole-row slots) name unused aperture rows and
// are ignored. An aperture too fragmented to hold the mode's minimal
// segment fails with an error wrapping fault.ErrDeviceFault, so the
// serving layer can fail over.
func NewPlanAvoiding(h, w, k, nconv int, pad tensor.PadMode, columnPad bool, dead []int) (*Plan, error) {
	p, err := NewPlan(h, w, k, nconv, pad, columnPad)
	if err != nil {
		return nil, err
	}
	if len(dead) == 0 {
		return p, nil
	}
	capSlots := p.capacitySlots()
	seen := make(map[int]bool, len(dead))
	for _, d := range dead {
		if d >= 0 && d < capSlots && !seen[d] {
			seen[d] = true
			p.deadSlots = append(p.deadSlots, d)
		}
	}
	if len(p.deadSlots) == 0 {
		return p, nil
	}
	sort.Ints(p.deadSlots)
	// Maximal live runs between dead slots. A span whose preceding dead run
	// is narrower than the packing gap sacrifices leading slots so segment
	// separation holds across the quarantine boundary.
	gap := p.segmentGapSlots()
	var raw []liveSpan
	s := 0
	for _, d := range p.deadSlots {
		if d > s {
			raw = append(raw, liveSpan{s, d - s})
		}
		s = d + 1
	}
	if s < capSlots {
		raw = append(raw, liveSpan{s, capSlots - s})
	}
	maxSpan := 0
	for i, sp := range raw {
		if i > 0 {
			deadGap := sp.start - (raw[i-1].start + raw[i-1].n)
			if lead := gap - deadGap; lead > 0 {
				sp.start += lead
				sp.n -= lead
			}
		}
		if sp.n >= 1 {
			p.liveSpans = append(p.liveSpans, sp)
			if sp.n > maxSpan {
				maxSpan = sp.n
			}
		}
	}
	minSeg := 1
	switch p.Mode {
	case RowTiling:
		if pad == tensor.Same && !columnPad {
			// Plain Same keeps the per-sample Nor-row chunking, so the
			// largest chunk must fit one span whole.
			minSeg = min(p.Nor, p.OutH) + p.K - 1
		} else {
			minSeg = p.K // one output row plus its K-1 trailing rows
		}
	case PartialRowTiling:
		minSeg = p.RowsPerShot
	}
	if maxSpan < minSeg {
		return nil, fmt.Errorf("tiling: %w: quarantine of %d slots leaves a largest live span of %d, below the minimal %v segment of %d",
			fault.ErrDeviceFault, len(p.deadSlots), maxSpan, p.Mode, minSeg)
	}
	return p, nil
}

// Shots returns the number of 1D correlations one plane convolution
// against ONE kernel performs: the schedule the executors run, which
// arch.EvalLayer prices. Under row tiling and partial row tiling it is the
// paper's cycle formula (Sec. III-A, III-B). Under row partitioning it is
// the halo-aware schedule: rows split into overlapping segments of
// NConv-K+1 valid samples, and Same-mode kernel rows that fall entirely
// outside the input are skipped, where the paper's OutH*K*ceil(W/NConv)
// (Sec. III-C) counts whole rows of NConv.
func (p *Plan) Shots() int {
	switch p.Mode {
	case RowTiling:
		return ceilDiv(p.OutH, p.Nor)
	case PartialRowTiling:
		return p.OutH * ceilDiv(p.K, p.RowsPerShot)
	default:
		step := p.NConv - p.K + 1
		if step < 1 {
			return 0
		}
		return p.rowPairs() * ceilDiv(p.OutW, step)
	}
}

// rowPairs counts the (output row, kernel row) pairs whose input row lies
// inside the input: the row correlations row partitioning runs per plane.
// Same mode skips the kernel rows that fall above or below the input, so
// only Valid mode reaches OutH*K.
func (p *Plan) rowPairs() int {
	pairs := 0
	for r := 0; r < p.OutH; r++ {
		for j := 0; j < p.K; j++ {
			if ri := r - p.padT + j; ri >= 0 && ri < p.H {
				pairs++
			}
		}
	}
	return pairs
}

// Efficiency returns the fraction of 1D output samples that are valid 2D
// outputs — the paper's computation-efficiency metric. Higher NConv or
// smaller inputs improve it (Sec. III-A).
//
// The denominator counts the FULL 1D correlation output of every shot,
// NConv + LK - 1 samples for a tiled kernel of length LK — so column
// padding, which stretches RowLen and with it the tiled kernel, correctly
// lowers the efficiency it buys exactness with. (An earlier version used
// NConv alone, silently ignoring the kernel-tile extension and the column
// padding inside it.)
func (p *Plan) Efficiency() float64 {
	return p.efficiencyFor(func(pass int) int { return p.shotsOfPass(pass) }, float64(p.OutH*p.OutW))
}

// shotOutputLen is the full 1D correlation output length of one shot in
// the given accumulation pass: NConv + LK - 1 for the pass's tiled kernel
// of length LK. It is the shared per-shot denominator of Plan.Efficiency
// and BatchPlan.Efficiency.
func (p *Plan) shotOutputLen(pass int) int {
	switch p.Mode {
	case RowTiling:
		lk := (p.K-1)*p.RowLen + p.K
		return p.NConv + lk - 1
	case PartialRowTiling:
		nRows := min(p.RowsPerShot, p.K-pass*p.RowsPerShot)
		lk := (nRows-1)*p.RowLen + p.K
		return p.NConv + lk - 1
	default:
		return p.NConv + p.K - 1
	}
}

// passes is the number of accumulation passes (distinct kernel tiles) the
// plan's mode uses.
func (p *Plan) passes() int {
	if p.Mode == PartialRowTiling {
		return ceilDiv(p.K, p.RowsPerShot)
	}
	return 1
}

// shotsOfPass is the per-sample shot count of one accumulation pass.
func (p *Plan) shotsOfPass(pass int) int {
	switch p.Mode {
	case RowTiling:
		return p.Shots()
	case PartialRowTiling:
		return p.OutH
	default:
		return p.Shots()
	}
}

// efficiencyFor computes valid / sum_pass(shots(pass) * shotOutputLen(pass))
// with the row-partitioning credit: each output row sums one row
// correlation per in-range kernel row (rowPairs / OutH of them on average,
// K in Valid mode), and each of those outputs counts as valid.
func (p *Plan) efficiencyFor(shotsOf func(pass int) int, valid float64) float64 {
	total := 0.0
	for pass := 0; pass < p.passes(); pass++ {
		total += float64(shotsOf(pass)) * float64(p.shotOutputLen(pass))
	}
	if total == 0 {
		return 0
	}
	eff := valid / total
	if p.Mode == RowPartitioning {
		eff *= float64(p.rowPairs()) / float64(p.OutH)
	}
	return eff
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		panic("tiling: ceilDiv by non-positive divisor")
	}
	return (a + b - 1) / b
}

// TileKernel lays the K rows of a KxK kernel into a 1D signal, separating
// consecutive rows by rowLen-K zeros so kernel rows align with tiled input
// rows (Fig. 3b). The result has length (K-1)*rowLen + K.
func TileKernel(kernel [][]float64, rowLen int) ([]float64, error) {
	k := len(kernel)
	if k == 0 {
		return nil, fmt.Errorf("tiling: empty kernel")
	}
	for _, row := range kernel {
		if len(row) != k {
			return nil, fmt.Errorf("tiling: kernel must be square, row has %d elements for size %d", len(row), k)
		}
	}
	if rowLen < k {
		return nil, fmt.Errorf("tiling: rowLen %d shorter than kernel size %d", rowLen, k)
	}
	out := make([]float64, (k-1)*rowLen+k)
	for j, row := range kernel {
		copy(out[j*rowLen:], row)
	}
	return out, nil
}

// kernelCorr is one 1D correlation stage bound to fixed kernel tiles, one
// per channel of an accumulation group: fn takes the group's tiled signals
// for a shot (gs[c] for channel c) and returns the full correlation of
// their channel sum. The signal buffers are reused between shots, so fn
// must not retain them.
type kernelCorr struct {
	lk int // tiled kernel length (sets the zero-lag offset in the result)
	fn func(gs [][]float64) ([]float64, error)
}

// forEachKernelTile validates the kernel and enumerates, in pass order, the
// 1D kernel tiles this plan's mode correlates against: one full tiled kernel
// for row tiling, one tile per accumulation pass for partial row tiling, one
// kernel row for row partitioning. Both the generic-correlator and the
// planned-spectrum paths are built from this single enumeration.
func (p *Plan) forEachKernelTile(kernel [][]float64, fn func(tile []float64) error) error {
	if err := p.checkKernel(kernel); err != nil {
		return err
	}
	switch p.Mode {
	case RowTiling:
		k1d, err := TileKernel(kernel, p.RowLen)
		if err != nil {
			return err
		}
		return fn(k1d)
	case PartialRowTiling:
		passes := ceilDiv(p.K, p.RowsPerShot)
		for pass := 0; pass < passes; pass++ {
			j0 := pass * p.RowsPerShot
			nRows := min(p.RowsPerShot, p.K-j0)
			if err := fn(p.tileKernelRows(kernel, j0, nRows)); err != nil {
				return err
			}
		}
		return nil
	default: // RowPartitioning
		for j := 0; j < p.K; j++ {
			krow := make([]float64, p.K)
			copy(krow, kernel[j])
			if err := fn(krow); err != nil {
				return err
			}
		}
		return nil
	}
}

// shotCorrs builds the per-pass correlation stages for this plan's mode from
// a generic Correlator backend.
func (p *Plan) shotCorrs(kernel [][]float64, corr Correlator) ([]kernelCorr, error) {
	var out []kernelCorr
	err := p.forEachKernelTile(kernel, func(tile []float64) error {
		out = append(out, kernelCorr{lk: len(tile), fn: func(gs [][]float64) ([]float64, error) {
			return corr(gs[0], tile), nil // one channel
		}})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// KernelPlan holds the precomputed 1D kernel tiles of one (plan, kernel)
// pair together with their frequency-domain spectra, so a CNN layer
// transforms each kernel tile once and reuses the spectrum across all shots
// (and all batch samples). A KernelPlan is read-only after construction and
// safe for concurrent use.
type KernelPlan struct {
	plan  *Plan
	lks   []int
	corrs []*fourier.ConvPlan // one per pass (partial) / kernel row (partitioned); single entry for row tiling
}

// kernelTileTransforms counts every kernel-tile spectrum built by
// PlanKernel, process-wide. Perf tests use it to assert that a compiled
// layer transforms its kernel tiles once per plan, not once per call.
var kernelTileTransforms atomic.Int64

// KernelTileTransforms returns the number of kernel-tile spectra built so
// far (a monotonic process-wide counter; compare deltas).
func KernelTileTransforms() int64 { return kernelTileTransforms.Load() }

// PlanKernel validates the kernel against the plan geometry and precomputes
// the kernel-tile spectra for the ideal FFT correlator backend.
func (p *Plan) PlanKernel(kernel [][]float64) (*KernelPlan, error) {
	kp := &KernelPlan{plan: p}
	err := p.forEachKernelTile(kernel, func(tile []float64) error {
		cp, err := fourier.NewCorrPlan(tile, p.NConv)
		if err != nil {
			return err
		}
		kernelTileTransforms.Add(1)
		kp.lks = append(kp.lks, len(tile))
		kp.corrs = append(kp.corrs, cp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return kp, nil
}

func (p *Plan) checkKernel(kernel [][]float64) error {
	if len(kernel) != p.K {
		return fmt.Errorf("tiling: kernel has %d rows, plan expects %d", len(kernel), p.K)
	}
	for _, row := range kernel {
		if len(row) != p.K {
			return fmt.Errorf("tiling: kernel row has %d cols, plan expects %d", len(row), p.K)
		}
	}
	return nil
}

func (p *Plan) checkInput(input [][]float64) error {
	if len(input) != p.H {
		return fmt.Errorf("tiling: input has %d rows, plan expects %d", len(input), p.H)
	}
	for _, row := range input {
		if len(row) != p.W {
			return fmt.Errorf("tiling: input row has %d cols, plan expects %d", len(row), p.W)
		}
	}
	return nil
}

// Conv2D computes the 2D convolution of input with kernel through 1D shots,
// using corr as the 1D correlation backend (nil means the ideal FFT
// correlator with a per-call precomputed kernel spectrum). The output has
// the plan's OutH x OutW size.
//
// Valid mode and ColumnPad Same mode reproduce 2D convolution exactly;
// plain Same mode exhibits the paper's edge effect within K-1 columns of
// row boundaries.
func (p *Plan) Conv2D(input, kernel [][]float64, corr Correlator) ([][]float64, error) {
	if corr == nil {
		kp, err := p.PlanKernel(kernel)
		if err != nil {
			return nil, err
		}
		return p.Conv2DPlanned(input, kp)
	}
	if err := p.checkInput(input); err != nil {
		return nil, err
	}
	kcs, err := p.shotCorrs(kernel, corr)
	if err != nil {
		return nil, err
	}
	acc := make([]float64, p.OutH*p.OutW)
	if err := p.convAccum([][][]float64{input}, kcs, acc); err != nil {
		return nil, err
	}
	return p.reshape(acc), nil
}

// Conv2DPlanned computes the 2D convolution against a precomputed
// KernelPlan, reusing the kernel spectra across every shot.
func (p *Plan) Conv2DPlanned(input [][]float64, kp *KernelPlan) ([][]float64, error) {
	acc := make([]float64, p.OutH*p.OutW)
	if err := p.Conv2DPlannedAccum([][][]float64{input}, []*KernelPlan{kp}, acc); err != nil {
		return nil, err
	}
	return p.reshape(acc), nil
}

// Conv2DPlannedAccum adds the 2D convolution of one accumulation group into
// acc, a row-major OutH x OutW buffer: inputs[c] is channel c's plane and
// kps[c] its precomputed KernelPlan. Each shot transforms every channel's
// signal, sums the kernel products in the frequency domain and runs one
// inverse transform (fourier.ConvolveSumInto), as the detector sums a
// group's channels as charge and reads out once; with one channel it is the
// plain planned convolution. It is the scalar oracle of the batch executor
// (Conv2DPlannedAccumBatch). Accumulating in place lets group sums build up
// without intermediate planes; all scratch comes from a package pool, so
// the hot loop performs no per-shot allocation.
func (p *Plan) Conv2DPlannedAccum(inputs [][][]float64, kps []*KernelPlan, acc []float64) error {
	if len(inputs) == 0 || len(inputs) != len(kps) {
		return fmt.Errorf("tiling: %d input planes for %d kernel plans", len(inputs), len(kps))
	}
	for c, kp := range kps {
		if kp == nil || kp.plan != p {
			return fmt.Errorf("tiling: kernel plan %d does not belong to this plan", c)
		}
		if err := p.checkInput(inputs[c]); err != nil {
			return err
		}
	}
	if len(acc) != p.OutH*p.OutW {
		return fmt.Errorf("tiling: accumulator length %d, plan output is %dx%d", len(acc), p.OutH, p.OutW)
	}
	ref := kps[0]
	maxLk := 0
	for _, lk := range ref.lks {
		maxLk = max(maxLk, lk)
	}
	dst := getFloats(p.NConv + maxLk - 1)
	defer putFloats(dst)
	kcs := make([]kernelCorr, len(ref.corrs))
	for pass := range kcs {
		plans := make([]*fourier.ConvPlan, len(kps))
		for c, kp := range kps {
			plans[c] = kp.corrs[pass]
		}
		kcs[pass] = kernelCorr{lk: ref.lks[pass], fn: func(gs [][]float64) ([]float64, error) {
			return fourier.ConvolveSumInto(dst, plans, gs)
		}}
	}
	if err := p.convAccum(inputs, kcs, acc); err != nil {
		return err
	}
	jtc.AddShots(int64(len(kps) * p.Shots()))
	return nil
}

func (p *Plan) reshape(acc []float64) [][]float64 {
	out := make([][]float64, p.OutH)
	for i := range out {
		// Cap each row so appending to one cannot overwrite the next.
		out[i] = acc[i*p.OutW : (i+1)*p.OutW : (i+1)*p.OutW]
	}
	return out
}

// convAccum dispatches to the mode-specific shot loop, adding the results
// for the group of input planes into the row-major accumulator.
func (p *Plan) convAccum(inputs [][][]float64, kcs []kernelCorr, acc []float64) error {
	buf := getFloats(len(inputs) * p.NConv)
	defer putFloats(buf)
	gs := make([][]float64, len(inputs))
	for c := range gs {
		gs[c] = buf[c*p.NConv : (c+1)*p.NConv]
	}
	switch p.Mode {
	case RowTiling:
		return p.convRowTiledAcc(inputs, gs, kcs[0], acc)
	case PartialRowTiling:
		return p.convPartialAcc(inputs, gs, kcs, acc)
	default:
		return p.convPartitionedAcc(inputs, gs, kcs, acc)
	}
}

// colOff is the column of the tiled signal that output column 0 aligns
// with: the left Same padding, or 0 when padded rows already carry the
// left zeros.
func (p *Plan) colOff() int {
	if p.ColumnPad && p.Pad == tensor.Same {
		return 0
	}
	return p.padL
}

func (p *Plan) convRowTiledAcc(inputs [][][]float64, gs [][]float64, kc kernelCorr, acc []float64) error {
	colOff := p.colOff()
	for shot := 0; shot*p.Nor < p.OutH; shot++ {
		rOut0 := shot * p.Nor
		for c, input := range inputs {
			p.tileRowsInto(gs[c], input, rOut0-p.padT, p.RowsPerShot)
		}
		full, err := kc.fn(gs)
		if err != nil {
			return err
		}
		p.scatterRowTiledShot(acc, full, kc.lk, rOut0, colOff)
	}
	return nil
}

// scatterRowTiledShot adds the valid output samples of one row-tiled shot's
// full correlation into the row-major accumulator.
func (p *Plan) scatterRowTiledShot(acc, full []float64, lk, rOut0, colOff int) {
	for t := 0; t < p.Nor && rOut0+t < p.OutH; t++ {
		row := acc[(rOut0+t)*p.OutW : (rOut0+t+1)*p.OutW]
		for c := 0; c < p.OutW; c++ {
			m := t*p.RowLen + c - colOff
			idx := m + lk - 1
			if idx < 0 || idx >= len(full) {
				continue
			}
			row[c] += full[idx]
		}
	}
}

func (p *Plan) convPartialAcc(inputs [][][]float64, gs [][]float64, kcs []kernelCorr, acc []float64) error {
	colOff := p.colOff()
	for r := 0; r < p.OutH; r++ {
		row := acc[r*p.OutW : (r+1)*p.OutW]
		for pass, kc := range kcs {
			j0 := pass * p.RowsPerShot
			nRows := min(p.RowsPerShot, p.K-j0)
			// Tile the nRows input rows feeding kernel rows j0..j0+nRows-1.
			for c, input := range inputs {
				p.tileRowsInto(gs[c], input, r-p.padT+j0, nRows)
			}
			full, err := kc.fn(gs)
			if err != nil {
				return err
			}
			lk := kc.lk
			for c := 0; c < p.OutW; c++ {
				idx := c - colOff + lk - 1
				if idx < 0 || idx >= len(full) {
					continue
				}
				row[c] += full[idx]
			}
		}
	}
	return nil
}

// tileRowsInto builds the 1D input signal for one shot into g (length
// NConv): nRows consecutive input rows starting at firstRow (virtual rows
// outside [0, H) contribute zeros, realizing Same-mode vertical padding),
// each laid out in a RowLen slot, zero-filled to NConv.
func (p *Plan) tileRowsInto(g []float64, input [][]float64, firstRow, nRows int) {
	for i := range g {
		g[i] = 0
	}
	for t := 0; t < nRows; t++ {
		r := firstRow + t
		if r < 0 || r >= p.H {
			continue
		}
		dst := g[t*p.RowLen:]
		if p.ColumnPad && p.Pad == tensor.Same {
			copy(dst[p.padL:], input[r])
		} else {
			copy(dst, input[r])
		}
	}
}

// segmentInto builds the NConv-sample row-partitioning segment of input
// row in that starts at output column c0, zero outside the row.
func (p *Plan) segmentInto(seg, in []float64, c0 int) {
	for i := range seg {
		ix := c0 - p.padL + i
		if ix < 0 || ix >= p.W {
			seg[i] = 0
		} else {
			seg[i] = in[ix]
		}
	}
}

func (p *Plan) tileKernelRows(kernel [][]float64, j0, nRows int) []float64 {
	out := make([]float64, (nRows-1)*p.RowLen+p.K)
	for t := 0; t < nRows; t++ {
		copy(out[t*p.RowLen:], kernel[j0+t])
	}
	return out
}

func (p *Plan) convPartitionedAcc(inputs [][][]float64, gs [][]float64, kcs []kernelCorr, acc []float64) error {
	// Each (output row, kernel row) pair is a 1D row correlation executed in
	// segments of NConv samples. Segments overlap by K-1 (halo) so the
	// assembled result equals an exact row correlation with zero boundaries:
	// row partitioning has no edge effect.
	step := p.NConv - p.K + 1
	if step < 1 {
		return fmt.Errorf("tiling: NConv %d cannot fit kernel %d with halo", p.NConv, p.K)
	}
	for r := 0; r < p.OutH; r++ {
		row := acc[r*p.OutW : (r+1)*p.OutW]
		for j := 0; j < p.K; j++ {
			ri := r - p.padT + j
			if ri < 0 || ri >= p.H {
				continue
			}
			kc := kcs[j]
			for c0 := 0; c0 < p.OutW; c0 += step {
				for c, input := range inputs {
					p.segmentInto(gs[c], input[ri], c0)
				}
				full, err := kc.fn(gs)
				if err != nil {
					return err
				}
				for c := c0; c < min(c0+step, p.OutW); c++ {
					row[c] += full[(c-c0)+p.K-1]
				}
			}
		}
	}
	return nil
}

// floatPool recycles shot signal and correlation scratch.
var floatPool buf.Pool[float64]

func getFloats(n int) []float64 { return floatPool.Get(n) }
func putFloats(s []float64)     { floatPool.Put(s) }

// MaxRelativeEdgeError bounds how far a Same-mode row-tiled result may
// deviate from the exact 2D convolution: the edge effect touches only
// columns within K-1 of a row boundary, so interior columns must match to
// numerical precision. It returns the maximum absolute difference observed
// strictly inside the safe interior region (should be ~0) — a diagnostic
// used by tests and the fidelity experiment.
func MaxRelativeEdgeError(got, want [][]float64, k int) (interior, edge float64) {
	padL := tensor.SamePad(k)
	for r := range got {
		for c := range got[r] {
			d := math.Abs(got[r][c] - want[r][c])
			// Interior: the kernel window [c-padL, c-padL+K) stays within
			// [0, W) so no tap crosses a row boundary.
			if c-padL >= 0 && c-padL+k <= len(got[r]) {
				if d > interior {
					interior = d
				}
			} else if d > edge {
				edge = d
			}
		}
	}
	return interior, edge
}
