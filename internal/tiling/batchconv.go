package tiling

import (
	"fmt"
	"sync"

	"photofourier/internal/fourier"
	"photofourier/internal/jtc"
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
		// performs, so batch and per-sample deltas compare.
		shots = n * p.Shots()
	}
	p.storePackedShots(n, shots)
	return shots
}

// BatchConvOperands bundles one accumulation group's operands for a whole
// batch: the sign-split activation planes of every (sample, channel), the
// kernel plans of both weight signs per (kernel, channel), and the
// cross-term accumulators.
type BatchConvOperands struct {
	// Channels is the group's input channel count G (at least 1). Its
	// channels sum in the frequency domain: one inverse transform per
	// (cross term, kernel, sample, shot), as the detector sums the group
	// as charge.
	Channels int
	// Pos and Neg hold the plane rows of every (sample, channel) for the
	// positive and negative activation part: Pos[b*Channels+c] is sample
	// b's channel c. A sample whose entries are nil skips that part (all G
	// entries of a sample are nil or none is). Either slice may be nil when
	// the part is absent batch-wide.
	Pos, Neg [][][]float64
	// KPos and KNeg are the kernel plans of the positive and negative
	// weight parts (nil when that sign is absent): KPos[j*Channels+c] is
	// kernel j's plan for channel c. All plans must belong to the same
	// tiling plan and share transform geometry.
	KPos, KNeg []*KernelPlan
	// Accs indexes the cross-term accumulators: Accs[0][b*nk+j] is (+x,+w)
	// for sample b and kernel j of the nk = len(KPos)/Channels kernels,
	// Accs[1] is (+x,-w) over KNeg, Accs[2] is (-x,+w) over KPos, Accs[3]
	// is (-x,-w) over KNeg. Each receives its convolution in place of what
	// it held, except that a sample without the term's activation part
	// leaves its accumulators untouched; a nil accumulator entry is
	// skipped.
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

// Conv2DPlannedAccumBatch runs one accumulation group's plane convolution
// for a whole batch, and is the one tiled executor of every planned run (a
// one-sample batch included). Inside each shot it walks the samples in
// chunks of LockstepWidth: each distinct (sample, channel, activation part)
// signal of the chunk is transformed to the frequency domain EXACTLY ONCE —
// into a chunk-sized SoA spectrum arena — and its spectrum reused against
// every kernel of both weight signs; each (term, kernel, sample) lane then
// sums its G channel products into one spectrum and runs one inverse
// transform and one window add, the way the hardware streams the group's
// frames past the latched filters and reads the summed charge out once.
// A chunk of exactly LockstepWidth samples that all carry a part runs
// that part's lanes as one full-chunk convolution per (term, kernel),
// the samples being the lanes (see batchShot).
// Each accumulator receives the group's convolution, whatever it held:
// the first shot to reach an entry stores it (a first-writer Window) and
// every later shot adds, in the shot order Conv2DPlannedAccum produces for
// its (sample, kernel) pair over the same group, so the result is
// bit-identical to per-sample grouped planned convolutions into a zeroed
// accumulator.
//
// Shot accounting is PACKED: the modeled hardware still fires one shot per
// channel, and executes the batch on the BatchPlan schedule (multiple
// samples' tiles sharing one aperture, and a sample's short
// partial-row-tiling passes sharing one too), so jtc.Shots advances by
// PackedShots of each part's present samples per (kernel, channel) pair —
// the numerical execution stays per-segment, which is what keeps it
// bit-identical to the per-sample oracle (see the batchplan.go exactness
// rules).
func (p *Plan) Conv2DPlannedAccumBatch(op *BatchConvOperands) error {
	g := op.Channels
	if g < 1 {
		return fmt.Errorf("tiling: batch group has %d channels", g)
	}
	if len(op.Pos)%g != 0 || len(op.Neg)%g != 0 {
		return fmt.Errorf("tiling: batch planes %d/%d are not whole samples of %d channels", len(op.Pos), len(op.Neg), g)
	}
	n := max(len(op.Pos), len(op.Neg)) / g
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
		maxSpec = max(maxSpec, cp.SpectrumLen())
	}
	slots := min(n, fourier.LockstepWidth) * g
	sc := getBatchScratch()
	defer putBatchScratch(sc)
	sc.sigBuf = getFloats(slots * p.NConv)
	defer putFloats(sc.sigBuf)
	if cap(sc.sigs) < slots {
		sc.sigs = make([][]float64, slots)
	}
	sc.sigs = sc.sigs[:slots]
	// One arena view pair per accumulation pass, over the shared pooled
	// backing of each present part (passes run sequentially, so slots are
	// reused between them).
	passes := len(ref.corrs)
	if cap(sc.arenas) < 2*passes {
		sc.arenas = make([]fourier.SpectrumArena, 2*passes)
	}
	sc.arenas = sc.arenas[:2*passes]
	if cap(sc.passArenas) < passes {
		sc.passArenas = make([][2]*fourier.SpectrumArena, passes)
	}
	sc.passArenas = sc.passArenas[:passes]
	var planes [2][2][]float64 // pooled arena backing per present part
	defer func() {
		for _, pp := range planes {
			for _, b := range pp {
				if b != nil {
					putFloats(b)
				}
			}
		}
	}()
	for pi := 0; pi < 2; pi++ {
		if !op.partPresent(pi, n) {
			for pass := range sc.passArenas {
				sc.passArenas[pass][pi] = nil
			}
			continue
		}
		planes[pi] = [2][]float64{getFloats(slots * maxSpec), getFloats(slots * maxSpec)}
		for pass, cp := range ref.corrs {
			bins := cp.SpectrumLen()
			a := &sc.arenas[2*pass+pi]
			if err := a.Reset(planes[pi][0][:slots*bins], planes[pi][1][:slots*bins], bins); err != nil {
				panic(err) // sizes are constructed to fit
			}
			sc.passArenas[pass][pi] = a
		}
	}
	// Each pass's kernel spectra, in KPos then KNeg order, so a lane's G
	// channel plans are one contiguous run.
	nk := len(op.KPos) + len(op.KNeg)
	if cap(sc.plans) < passes*nk {
		sc.plans = make([]*fourier.ConvPlan, passes*nk)
	}
	sc.plans = sc.plans[:passes*nk]
	for pass := 0; pass < passes; pass++ {
		for i, kp := range op.KPos {
			sc.plans[pass*nk+i] = kp.corrs[pass]
		}
		for i, kp := range op.KNeg {
			sc.plans[pass*nk+len(op.KPos)+i] = kp.corrs[pass]
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
	clear(sc.plans)
	if err != nil {
		return err
	}
	p.countBatchShots(op, n)
	return nil
}

// partPresent reports whether any of the n samples carries activation
// part pi (0 = pos, 1 = neg).
func (op *BatchConvOperands) partPresent(pi, n int) bool {
	for b := 0; b < n; b++ {
		if op.rowsOf(pi, b*op.Channels) != nil {
			return true
		}
	}
	return false
}

// countBatchShots advances the process shot counter by the packed schedule:
// each activation part's participating samples pack into PackedShots
// apertures, each illuminated once per latched (kernel, channel) pair of
// both weight signs — one count for the whole batch and group.
func (p *Plan) countBatchShots(op *BatchConvOperands, n int) {
	pairs := int64(len(op.KPos) + len(op.KNeg))
	if pairs == 0 {
		return
	}
	total := int64(0)
	for pi := 0; pi < 2; pi++ {
		present := 0
		for b := 0; b < n; b++ {
			if op.rowsOf(pi, b*op.Channels) != nil {
				present++
			}
		}
		if present > 0 {
			total += int64(p.PackedShots(present)) * pairs
		}
	}
	jtc.AddShots(total)
}

// checkBatchOperands validates geometry, channel grouping and transform
// sharing, returning a reference kernel plan (nil when no kernel set is
// present).
func (p *Plan) checkBatchOperands(op *BatchConvOperands, n int) (*KernelPlan, error) {
	g := op.Channels
	var ref *KernelPlan
	for _, set := range [2][]*KernelPlan{op.KPos, op.KNeg} {
		if len(set)%g != 0 {
			return nil, fmt.Errorf("tiling: %d batch kernel plans are not whole kernels of %d channels", len(set), g)
		}
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
		for i, rows := range part {
			if (rows == nil) != (part[i-i%g] == nil) {
				return nil, fmt.Errorf("tiling: batch sample %d carries the part on some of its %d channels only", i/g, g)
			}
			if rows == nil {
				continue
			}
			if err := p.checkInput(rows); err != nil {
				return nil, fmt.Errorf("tiling: batch sample %d channel %d: %w", i/g, i%g, err)
			}
		}
	}
	for term, accs := range op.Accs {
		nk := len(op.kernelSetFor(term)) / g
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

// rowsOf returns the plane rows of (sample, channel) entry i of part pi (0
// = pos, 1 = neg), or nil.
func (op *BatchConvOperands) rowsOf(pi, i int) [][]float64 {
	part := op.Pos
	if pi == 1 {
		part = op.Neg
	}
	if i >= len(part) {
		return nil
	}
	return part[i]
}

// batchScratch pools every per-call buffer Conv2DPlannedAccumBatch needs
// beyond the float planes, so a warmed batch executor runs a whole group
// convolution without heap allocation.
type batchScratch struct {
	sigs   [][]float64 // per-(chunk sample, channel) shot-signal views (nil = absent)
	sigBuf []float64   // backing for sigs: chunk * G * NConv

	arenas     []fourier.SpectrumArena     // 2*passes reusable arena values
	passArenas [][2]*fourier.SpectrumArena // per-pass (pos, neg) arena views; nil for an absent part

	// plans holds each pass's kernel spectra: pass p's KPos plans, then its
	// KNeg plans, from p*(len(KPos)+len(KNeg)).
	plans []*fourier.ConvPlan

	// lanes is convolveShotKernels' pending lockstep group, and chunk its
	// full-chunk convolution.
	lanes [fourier.LockstepWidth]fourier.ConvLane
	chunk fourier.ConvChunk
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

// batchShot completes one shot of accumulation pass `pass` for the whole
// batch, LockstepWidth samples at a time: fill builds the shot's 1D signal
// from a plane's rows, every present (sample, channel, part) signal of the
// chunk is transformed once into the pass's arena, and the chunk's lanes
// convolve and add their window into each accumulator from entry at on.
//
// A part whose chunk holds exactly LockstepWidth samples that all carry it
// (and whose plans are Chunkable) is a full chunk: each channel's
// LockstepWidth signals transform with one TransformChunkSoA straight into
// the channel's bin-major chunk plane, which is arena slots
// [c*LockstepWidth, (c+1)*LockstepWidth) read as one plane. Every other
// part keeps the slot layout of TransformSlotsSoA. The rule reads only the
// chunk's shape.
func (p *Plan) batchShot(op *BatchConvOperands, ref *KernelPlan, sc *batchScratch, n, pass, at int, win fourier.Window, fill func(g []float64, rows [][]float64)) error {
	g := op.Channels
	cp := ref.corrs[pass]
	for b0 := 0; b0 < n; b0 += fourier.LockstepWidth {
		b1 := min(b0+fourier.LockstepWidth, n)
		var full [2]bool
		for pi := 0; pi < 2; pi++ {
			ar := sc.passArenas[pass][pi]
			if ar == nil {
				continue
			}
			full[pi] = b1-b0 == fourier.LockstepWidth && cp.Chunkable() && op.chunkHasPart(pi, b0, b1)
			if full[pi] {
				sigs := sc.sigs[:fourier.LockstepWidth]
				for c := 0; c < g; c++ {
					for s := range sigs {
						sig := sc.sigBuf[s*p.NConv : (s+1)*p.NConv]
						fill(sig, op.rowsOf(pi, (b0+s)*g+c))
						sigs[s] = sig
					}
					re, im := ar.SlotRange(c*fourier.LockstepWidth, fourier.LockstepWidth)
					if err := cp.TransformChunkSoA(re, im, sigs); err != nil {
						return err
					}
				}
				continue
			}
			sigs := sc.sigs[:(b1-b0)*g]
			for i := range sigs {
				rows := op.rowsOf(pi, b0*g+i)
				if rows == nil {
					sigs[i] = nil
					continue
				}
				sig := sc.sigBuf[i*p.NConv : (i+1)*p.NConv]
				fill(sig, rows)
				sigs[i] = sig
			}
			if err := cp.TransformSlotsSoA(ar, sigs); err != nil {
				return err
			}
		}
		if err := p.convolveShotKernels(op, sc, b0, b1, pass, at, win, full); err != nil {
			return err
		}
	}
	return nil
}

// chunkHasPart reports whether every sample of [b0, b1) carries
// activation part pi.
func (op *BatchConvOperands) chunkHasPart(pi, b0, b1 int) bool {
	for b := b0; b < b1; b++ {
		if op.rowsOf(pi, b*op.Channels) == nil {
			return false
		}
	}
	return true
}

// convolveShotKernels completes one shot for every (term, kernel, sample)
// lane of samples [b0, b1): the lane's G channel spectra in the shot's
// arenas multiply the kernel's G channel spectra and sum, and the shot's
// window of the one inverse transform adds into the accumulator from entry
// at on (or stores, when the window is the entries' first writer). A term whose activation part is a full chunk (full[pi]) runs each
// kernel as one ConvolveChunkSoA over the chunk's samples. The other
// terms' (term, kernel, sample) scan flattens into lockstep groups of up
// to LockstepWidth lanes — mixing kernels and samples freely, since every
// plan of one pass shares transform geometry — and each group runs as ONE
// batched inverse transform. Every accumulator sees exactly one write per
// shot, so inter-shot order (the caller's) is what fixes
// bit-identity, and each lane's window is itself bit-identical to the same
// samples of ConvolveSumInto on the lane's signals.
func (p *Plan) convolveShotKernels(op *BatchConvOperands, sc *batchScratch, b0, b1, pass, at int, win fourier.Window, full [2]bool) error {
	g := op.Channels
	sigLen := p.NConv
	nk := len(op.KPos) + len(op.KNeg)
	nl := 0
	for term := 0; term < 4; term++ {
		accs := op.Accs[term]
		if accs == nil {
			continue
		}
		pi := term / 2 // terms 0 and 1 read the positive part, 2 and 3 the negative
		plans := sc.plans[pass*nk : pass*nk+len(op.KPos)]
		if term == 1 || term == 3 {
			plans = sc.plans[pass*nk+len(op.KPos) : (pass+1)*nk]
		}
		kernels := len(plans) / g
		for j := 0; j < kernels; j++ {
			jp := plans[j*g : (j+1)*g]
			if full[pi] {
				ch := &sc.chunk
				ch.Plans, ch.Window = jp, win
				ch.SpecRe, ch.SpecIm = sc.passArenas[pass][pi].SlotRange(0, fourier.LockstepWidth*g)
				for s := range ch.Accs {
					ch.Accs[s] = nil
					if acc := accs[(b0+s)*kernels+j]; acc != nil {
						ch.Accs[s] = acc[at:]
					}
				}
				if err := fourier.ConvolveChunkSoA(sigLen, ch); err != nil {
					return err
				}
				continue
			}
			for b := b0; b < b1; b++ {
				if op.rowsOf(pi, b*g) == nil {
					continue
				}
				acc := accs[b*kernels+j]
				if acc == nil {
					continue
				}
				re, im := sc.passArenas[pass][pi].SlotRange((b-b0)*g, g)
				sc.lanes[nl] = fourier.ConvLane{Plans: jp, SpecRe: re, SpecIm: im, Acc: acc[at:], Window: win}
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
// which they never trip (ConvolveLanesSoA checks each window once). Each
// output row belongs to exactly one shot, so every window is its rows'
// first writer.
func (p *Plan) rowTiledWindow(lk, rOut0, colOff int) (int, fourier.Window) {
	return rOut0 * p.OutW, fourier.Window{
		Off: lk - 1 - colOff, Rows: min(p.Nor, p.OutH-rOut0), Width: p.OutW,
		SrcStride: p.RowLen, AccStride: p.OutW, First: true,
	}
}

// partialWindow locates the one output row r that a partial-row-tiling pass
// against a tile of length lk contributes to; pass 0 writes the row first.
func (p *Plan) partialWindow(lk, r, colOff, pass int) (int, fourier.Window) {
	return r * p.OutW, fourier.Window{Off: lk - 1 - colOff, Rows: 1, Width: p.OutW, First: pass == 0}
}

// partitionedWindow locates the valid columns [c0, c0+step) of output row r
// that one row-partitioning segment contributes; first marks the row's
// first in-range kernel row.
func (p *Plan) partitionedWindow(r, c0, step int, first bool) (int, fourier.Window) {
	return r*p.OutW + c0, fourier.Window{Off: p.K - 1, Rows: 1, Width: min(c0+step, p.OutW) - c0, First: first}
}

func (p *Plan) batchRowTiled(op *BatchConvOperands, ref *KernelPlan, n int, sc *batchScratch) error {
	colOff := p.colOff()
	for shot := 0; shot*p.Nor < p.OutH; shot++ {
		rOut0 := shot * p.Nor
		at, win := p.rowTiledWindow(ref.lks[0], rOut0, colOff)
		err := p.batchShot(op, ref, sc, n, 0, at, win, func(g []float64, rows [][]float64) {
			p.tileRowsInto(g, rows, rOut0-p.padT, p.RowsPerShot)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *Plan) batchPartial(op *BatchConvOperands, ref *KernelPlan, n int, sc *batchScratch) error {
	colOff := p.colOff()
	for r := 0; r < p.OutH; r++ {
		for pass := range ref.corrs {
			j0 := pass * p.RowsPerShot
			nRows := min(p.RowsPerShot, p.K-j0)
			at, win := p.partialWindow(ref.lks[pass], r, colOff, pass)
			err := p.batchShot(op, ref, sc, n, pass, at, win, func(g []float64, rows [][]float64) {
				p.tileRowsInto(g, rows, r-p.padT+j0, nRows)
			})
			if err != nil {
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
		first := true // Same padding is less than K, so some kernel row is in range
		for j := 0; j < p.K; j++ {
			ri := r - p.padT + j
			if ri < 0 || ri >= p.H {
				continue
			}
			for c0 := 0; c0 < p.OutW; c0 += step {
				at, win := p.partitionedWindow(r, c0, step, first)
				err := p.batchShot(op, ref, sc, n, j, at, win, func(seg []float64, rows [][]float64) {
					p.segmentInto(seg, rows[ri], c0)
				})
				if err != nil {
					return err
				}
			}
			first = false
		}
	}
	return nil
}
