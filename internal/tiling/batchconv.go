package tiling

import (
	"fmt"
	"sync"

	"photofourier/internal/fourier"
	"photofourier/internal/jtc"
	"photofourier/internal/tensor"
)

// PackedShots returns the packed shot count PlanBatch(n) would schedule,
// without materializing the schedule — the hot-path form the batch executor
// uses for shot accounting. BatchPlan.Shots() always equals PackedShots(N).
func (p *Plan) PackedShots(n int) int {
	if n < 1 {
		return 0
	}
	if v := p.loadPackedShots(n); v >= 0 {
		return v
	}
	cap := p.capacitySlots()
	gap := p.segmentGapSlots()
	shots := 0
	switch p.Mode {
	case RowTiling:
		shots = p.rowTiledSchedule(n, nil)
	case PartialRowTiling:
		passes := ceilDiv(p.K, p.RowsPerShot)
		for pass := 0; pass < passes; pass++ {
			nRows := min(p.RowsPerShot, p.K-pass*p.RowsPerShot)
			per := (cap + gap) / (nRows + gap) // segments per shot
			if per < 1 {
				per = 1
			}
			shots += ceilDiv(n*p.OutH, per)
		}
	default:
		// Row partitioning packs nothing; count what per-sample execution
		// actually performs (executedShots skips Same-mode kernel rows that
		// fall outside the input), so batch and per-sample deltas compare.
		shots = n * p.executedShots()
	}
	p.storePackedShots(n, shots)
	return shots
}

// BatchConvOperands bundles ONE input channel's operands for a whole batch:
// the sign-split activation planes of every sample, the kernel plans of
// both weight signs, and the cross-term accumulators.
type BatchConvOperands struct {
	// Pos and Neg hold each sample's plane rows for the positive and
	// negative activation part; a nil sample entry skips that part for
	// that sample. Either slice may be nil when the part is absent batch-
	// wide.
	Pos, Neg [][][]float64
	// KPos and KNeg are the kernel plans of the positive and negative
	// weight parts (nil when that sign is absent). All plans must belong
	// to the same tiling plan and share transform geometry.
	KPos, KNeg []*KernelPlan
	// Accs indexes the cross-term accumulators: Accs[0][b*len(KPos)+j] is
	// (+x,+w) for sample b and kernel j, Accs[1] is (+x,-w) over KNeg,
	// Accs[2] is (-x,+w) over KPos, Accs[3] is (-x,-w) over KNeg. A nil
	// accumulator entry is skipped.
	Accs [4][][]float64
}

// kernelSetFor maps a cross-term index to its kernel set: terms 0 and 2 use
// the positive-weight plans, terms 1 and 3 the negative-weight plans.
func (op *BatchConvOperands) kernelSetFor(term int) []*KernelPlan {
	if term == 0 || term == 2 {
		return op.KPos
	}
	return op.KNeg
}

// Conv2DPlannedAccumBatch runs one input channel's plane convolution for a
// whole batch, and is the one tiled executor of every planned run (a
// one-sample batch included): each distinct (sample, shot, activation part)
// signal is transformed to the frequency domain EXACTLY ONCE — into a
// contiguous SoA spectrum arena — and its spectrum reused against every
// kernel of both weight signs, in shot → kernel → sample order, the way the
// hardware streams one activation frame past many latched filters. Each
// accumulator receives additions in the same (shot) order
// Conv2DPlannedAccum produces for its (sample, kernel) pair, so the result
// is bit-identical to per-sample single-kernel planned convolutions.
//
// Shot accounting is PACKED: the modeled hardware executes the batch on the
// BatchPlan schedule (multiple samples' tiles sharing one aperture, and a
// sample's short partial-row-tiling passes sharing one too), so jtc.Shots
// advances by PackedShots of each part's present samples per kernel — the
// numerical execution stays per-segment, which is what keeps it
// bit-identical to the per-sample oracle (see the batchplan.go exactness
// rules).
func (p *Plan) Conv2DPlannedAccumBatch(op *BatchConvOperands) error {
	n := len(op.Pos)
	if len(op.Neg) > n {
		n = len(op.Neg)
	}
	if n == 0 {
		return nil
	}
	ref, err := p.checkBatchOperands(op, n)
	if err != nil {
		return err
	}
	if ref == nil {
		return nil // no kernels at all
	}
	maxSpec := 0
	for _, cp := range ref.corrs {
		if sl := cp.SpectrumLen(); sl > maxSpec {
			maxSpec = sl
		}
	}
	sc := getBatchScratch()
	defer putBatchScratch(sc)
	sc.sigBuf = getFloats(n * p.NConv)
	defer putFloats(sc.sigBuf)
	if cap(sc.sigs) < n {
		sc.sigs = make([][]float64, n)
	}
	sc.sigs = sc.sigs[:n]
	arenaRe := [2][]float64{getFloats(n * maxSpec), getFloats(n * maxSpec)}
	arenaIm := [2][]float64{getFloats(n * maxSpec), getFloats(n * maxSpec)}
	defer func() {
		for i := 0; i < 2; i++ {
			putFloats(arenaRe[i])
			putFloats(arenaIm[i])
		}
	}()
	// One arena view pair per accumulation pass, over the shared pooled
	// backing (passes run sequentially, so slots are reused between them).
	passes := len(ref.corrs)
	if cap(sc.arenas) < 2*passes {
		sc.arenas = make([]fourier.SpectrumArena, 2*passes)
	}
	sc.arenas = sc.arenas[:2*passes]
	if cap(sc.passArenas) < passes {
		sc.passArenas = make([][2]*fourier.SpectrumArena, passes)
	}
	sc.passArenas = sc.passArenas[:passes]
	for pass := range ref.corrs {
		bins := ref.corrs[pass].SpectrumLen()
		for i := 0; i < 2; i++ {
			a := &sc.arenas[2*pass+i]
			if err := a.Reset(arenaRe[i][:n*bins], arenaIm[i][:n*bins], bins); err != nil {
				panic(err) // sizes are constructed to fit
			}
			sc.passArenas[pass][i] = a
		}
	}
	switch p.Mode {
	case RowTiling:
		err = p.batchRowTiled(op, ref, n, sc)
	case PartialRowTiling:
		err = p.batchPartial(op, ref, n, sc)
	default:
		err = p.batchPartitioned(op, ref, n, sc)
	}
	if err != nil {
		return err
	}
	p.countBatchShots(op, n)
	return nil
}

// countBatchShots advances the process shot counter by the packed schedule:
// each activation part's participating samples pack into PackedShots
// apertures, each illuminated once per latched kernel (both weight signs).
func (p *Plan) countBatchShots(op *BatchConvOperands, n int) {
	kernels := int64(len(op.KPos) + len(op.KNeg))
	if kernels == 0 {
		return
	}
	total := int64(0)
	for _, part := range [2][][][]float64{op.Pos, op.Neg} {
		present := 0
		for _, rows := range part {
			if rows != nil {
				present++
			}
		}
		if present > 0 {
			total += int64(p.PackedShots(present)) * kernels
		}
	}
	jtc.AddShots(total)
}

// checkBatchOperands validates geometry and transform sharing, returning a
// reference kernel plan (nil when no kernel set is present).
func (p *Plan) checkBatchOperands(op *BatchConvOperands, n int) (*KernelPlan, error) {
	var ref *KernelPlan
	for _, set := range [2][]*KernelPlan{op.KPos, op.KNeg} {
		for j, kp := range set {
			if kp == nil || kp.plan != p {
				return nil, fmt.Errorf("tiling: batch kernel plan %d does not belong to this plan", j)
			}
			if ref == nil {
				ref = kp
				continue
			}
			for pass := range kp.corrs {
				if !ref.corrs[pass].SharesTransform(kp.corrs[pass]) {
					return nil, fmt.Errorf("tiling: batch kernel plan %d pass %d has mismatched transform geometry", j, pass)
				}
			}
		}
	}
	for _, part := range [2][][][]float64{op.Pos, op.Neg} {
		for b, rows := range part {
			if rows == nil {
				continue
			}
			if err := p.checkInput(rows); err != nil {
				return nil, fmt.Errorf("tiling: batch sample %d: %w", b, err)
			}
		}
	}
	for term, accs := range op.Accs {
		nk := len(op.kernelSetFor(term))
		if accs == nil {
			continue
		}
		if len(accs) != n*nk {
			return nil, fmt.Errorf("tiling: term %d has %d accumulators, want %d samples x %d kernels", term, len(accs), n, nk)
		}
		for i, acc := range accs {
			if acc != nil && len(acc) != p.OutH*p.OutW {
				return nil, fmt.Errorf("tiling: term %d accumulator %d length %d, plan output is %dx%d", term, i, len(acc), p.OutH, p.OutW)
			}
		}
	}
	return ref, nil
}

// rowsOf returns sample b's plane rows for part index pi (0 = pos, 1 =
// neg), or nil.
func (op *BatchConvOperands) rowsOf(pi, b int) [][]float64 {
	part := op.Pos
	if pi == 1 {
		part = op.Neg
	}
	if b >= len(part) {
		return nil
	}
	return part[b]
}

// batchScratch pools every per-call buffer Conv2DPlannedAccumBatch needs
// beyond the float planes, so a warmed batch executor runs a whole channel
// convolution without heap allocation.
type batchScratch struct {
	sigs   [][]float64 // per-sample shot-signal views (nil = sample absent)
	sigBuf []float64   // backing for sigs: n * NConv

	arenas     []fourier.SpectrumArena     // 2*passes reusable arena values
	passArenas [][2]*fourier.SpectrumArena // per-pass (pos, neg) arena views

	// lanes is convolveShotKernels' pending lockstep group.
	lanes [fourier.LockstepWidth]fourier.ConvLane
}

var batchScratchPool sync.Pool

func getBatchScratch() *batchScratch {
	sc, _ := batchScratchPool.Get().(*batchScratch)
	if sc == nil {
		sc = new(batchScratch)
	}
	return sc
}

func putBatchScratch(sc *batchScratch) { batchScratchPool.Put(sc) }

// convolveShotKernels completes one shot for every (kernel, part, sample)
// triple: the shot's arena spectra multiply each kernel spectrum, and the
// shot's window adds into each accumulator from entry at on. The (term,
// kernel, sample) scan flattens into lockstep groups of up to
// LockstepWidth lanes — mixing kernels and samples freely, since every plan
// of one pass shares transform geometry — and each group runs as ONE
// batched inverse transform. Lanes add in exactly the scalar scan order;
// every accumulator sees exactly one addition per shot, so inter-shot order
// (the caller's) is what fixes bit-identity, and each lane's window is
// itself bit-identical to the same samples of ConvolveSoAInto.
func (p *Plan) convolveShotKernels(op *BatchConvOperands, sc *batchScratch, n, pass, sigLen int, ar [2]*fourier.SpectrumArena, at int, win fourier.Window) error {
	nl := 0
	for term := 0; term < 4; term++ {
		accs := op.Accs[term]
		if accs == nil {
			continue
		}
		kset := op.kernelSetFor(term)
		pi := 0
		if term >= 2 {
			pi = 1
		}
		for j, kp := range kset {
			cp := kp.corrs[pass]
			for b := 0; b < n; b++ {
				if op.rowsOf(pi, b) == nil {
					continue
				}
				acc := accs[b*len(kset)+j]
				if acc == nil {
					continue
				}
				re, im := ar[pi].Slot(b)
				sc.lanes[nl] = fourier.ConvLane{Plan: cp, SpecRe: re, SpecIm: im, Acc: acc[at:], Window: win}
				nl++
				if nl == fourier.LockstepWidth {
					if err := fourier.ConvolveLanesSoA(sigLen, sc.lanes[:nl]); err != nil {
						return err
					}
					nl = 0
				}
			}
		}
	}
	if nl > 0 {
		return fourier.ConvolveLanesSoA(sigLen, sc.lanes[:nl])
	}
	return nil
}

// rowTiledWindow locates the valid outputs of the row-tiled shot whose first
// output row is rOut0: the accumulator entry of that row, and the window of
// its Nor rows (fewer in the last shot) in the full correlation against a
// tiled kernel of length lk. The window skips the halo between rows. Every
// kernel plan of one Plan shares lk per pass, so one window serves a whole
// shot; these windows replace the scalar path's per-element bounds tests,
// which they never trip (ConvolveLanesSoA checks each window once).
func (p *Plan) rowTiledWindow(lk, rOut0, colOff int) (int, fourier.Window) {
	return rOut0 * p.OutW, fourier.Window{
		Off: lk - 1 - colOff, Rows: min(p.Nor, p.OutH-rOut0), Width: p.OutW,
		SrcStride: p.RowLen, AccStride: p.OutW,
	}
}

// partialWindow locates the one output row r that a partial-row-tiling pass
// against a tile of length lk contributes to.
func (p *Plan) partialWindow(lk, r, colOff int) (int, fourier.Window) {
	return r * p.OutW, fourier.Window{Off: lk - 1 - colOff, Rows: 1, Width: p.OutW}
}

// partitionedWindow locates the valid columns [c0, c0+step) of output row r
// that one row-partitioning segment contributes.
func (p *Plan) partitionedWindow(r, c0, step int) (int, fourier.Window) {
	return r*p.OutW + c0, fourier.Window{Off: p.K - 1, Rows: 1, Width: min(c0+step, p.OutW) - c0}
}

func (p *Plan) batchRowTiled(op *BatchConvOperands, ref *KernelPlan, n int, sc *batchScratch) error {
	refCorr := ref.corrs[0]
	ar := sc.passArenas[0]
	colOff := p.padL
	if p.ColumnPad && p.Pad == tensor.Same {
		colOff = 0
	}
	for shot := 0; shot*p.Nor < p.OutH; shot++ {
		rOut0 := shot * p.Nor
		for pi := 0; pi < 2; pi++ {
			for b := 0; b < n; b++ {
				rows := op.rowsOf(pi, b)
				if rows == nil {
					sc.sigs[b] = nil
					continue
				}
				g := sc.sigBuf[b*p.NConv : (b+1)*p.NConv]
				p.tileRowsInto(g, rows, rOut0-p.padT, p.RowsPerShot)
				sc.sigs[b] = g
			}
			if err := refCorr.TransformSlotsSoA(ar[pi], sc.sigs); err != nil {
				return err
			}
		}
		at, win := p.rowTiledWindow(ref.lks[0], rOut0, colOff)
		if err := p.convolveShotKernels(op, sc, n, 0, p.NConv, ar, at, win); err != nil {
			return err
		}
	}
	return nil
}

func (p *Plan) batchPartial(op *BatchConvOperands, ref *KernelPlan, n int, sc *batchScratch) error {
	colOff := p.padL
	if p.ColumnPad && p.Pad == tensor.Same {
		colOff = 0
	}
	for r := 0; r < p.OutH; r++ {
		for pass := range ref.corrs {
			j0 := pass * p.RowsPerShot
			nRows := min(p.RowsPerShot, p.K-j0)
			refCorr := ref.corrs[pass]
			ar := sc.passArenas[pass]
			for pi := 0; pi < 2; pi++ {
				for b := 0; b < n; b++ {
					rows := op.rowsOf(pi, b)
					if rows == nil {
						sc.sigs[b] = nil
						continue
					}
					g := sc.sigBuf[b*p.NConv : (b+1)*p.NConv]
					p.tileRowsInto(g, rows, r-p.padT+j0, nRows)
					sc.sigs[b] = g
				}
				if err := refCorr.TransformSlotsSoA(ar[pi], sc.sigs); err != nil {
					return err
				}
			}
			at, win := p.partialWindow(ref.lks[pass], r, colOff)
			if err := p.convolveShotKernels(op, sc, n, pass, p.NConv, ar, at, win); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Plan) batchPartitioned(op *BatchConvOperands, ref *KernelPlan, n int, sc *batchScratch) error {
	step := p.NConv - p.K + 1
	if step < 1 {
		return fmt.Errorf("tiling: NConv %d cannot fit kernel %d with halo", p.NConv, p.K)
	}
	for r := 0; r < p.OutH; r++ {
		for j := 0; j < p.K; j++ {
			ri := r - p.padT + j
			if ri < 0 || ri >= p.H {
				continue
			}
			refCorr := ref.corrs[j]
			ar := sc.passArenas[j]
			for c0 := 0; c0 < p.OutW; c0 += step {
				for pi := 0; pi < 2; pi++ {
					for b := 0; b < n; b++ {
						rows := op.rowsOf(pi, b)
						if rows == nil {
							sc.sigs[b] = nil
							continue
						}
						in := rows[ri]
						seg := sc.sigBuf[b*p.NConv : (b+1)*p.NConv]
						for i := range seg {
							ix := c0 - p.padL + i
							if ix < 0 || ix >= p.W {
								seg[i] = 0
							} else {
								seg[i] = in[ix]
							}
						}
						sc.sigs[b] = seg
					}
					if err := refCorr.TransformSlotsSoA(ar[pi], sc.sigs); err != nil {
						return err
					}
				}
				at, win := p.partitionedWindow(r, c0, step)
				if err := p.convolveShotKernels(op, sc, n, j, p.NConv, ar, at, win); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
