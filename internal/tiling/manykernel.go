package tiling

import (
	"fmt"

	"photofourier/internal/fourier"
	"photofourier/internal/jtc"
	"photofourier/internal/tensor"
)

// Conv2DPlannedAccumMany adds, for each planned kernel kps[j], the 2D
// convolution of input into accs[j] (row-major OutH x OutW buffers). It is
// the joint-transform form of Conv2DPlannedAccum: every shot's tiled input
// signal is transformed to the frequency domain ONCE and its spectrum reused
// against every kernel's cached spectrum — exactly how the hardware streams
// one activation frame past many latched filters. A CNN layer running all
// output channels of one input plane through this call pays one forward
// transform per shot instead of one per (shot, output channel).
//
// Each accs[j] receives additions in the same order Conv2DPlannedAccum
// would produce, so the result is bit-identical to j independent planned
// convolutions.
func (p *Plan) Conv2DPlannedAccumMany(input [][]float64, kps []*KernelPlan, accs [][]float64) error {
	if len(kps) != len(accs) {
		return fmt.Errorf("tiling: %d kernel plans for %d accumulators", len(kps), len(accs))
	}
	if len(kps) == 0 {
		return nil
	}
	if err := p.checkInput(input); err != nil {
		return err
	}
	ref := kps[0]
	for j, kp := range kps {
		if kp == nil || kp.plan != p {
			return fmt.Errorf("tiling: kernel plan %d does not belong to this plan", j)
		}
		if len(accs[j]) != p.OutH*p.OutW {
			return fmt.Errorf("tiling: accumulator %d length %d, plan output is %dx%d", j, len(accs[j]), p.OutH, p.OutW)
		}
		// Same plan geometry guarantees identical tile lengths pass by
		// pass; verify the transforms really share so a spectrum computed
		// through kps[0] is valid for every kernel.
		for pass := range kp.corrs {
			if !ref.corrs[pass].SharesTransform(kp.corrs[pass]) {
				return fmt.Errorf("tiling: kernel plan %d pass %d has mismatched transform geometry", j, pass)
			}
		}
	}
	maxSpec := 0
	for _, cp := range ref.corrs {
		if sl := cp.SpectrumLen(); sl > maxSpec {
			maxSpec = sl
		}
	}
	g := getFloats(p.NConv)
	defer putFloats(g)
	sc := getBatchScratch()
	defer putBatchScratch(sc)
	// A one-slot arena holds each shot's spectrum in split planes so the
	// kernel sweep can run as lockstep groups; the backing covers the widest
	// pass and is repointed (Reset) at each pass's bin count.
	arRe := getFloats(maxSpec)
	defer putFloats(arRe)
	arIm := getFloats(maxSpec)
	defer putFloats(arIm)
	if cap(sc.arenas) < 1 {
		sc.arenas = make([]fourier.SpectrumArena, 1)
	}
	sc.arenas = sc.arenas[:1]
	var err error
	switch p.Mode {
	case RowTiling:
		err = p.convRowTiledAccMany(input, kps, accs, g, arRe, arIm, sc)
	case PartialRowTiling:
		err = p.convPartialAccMany(input, kps, accs, g, arRe, arIm, sc)
	default:
		err = p.convPartitionedAccMany(input, kps, accs, g, arRe, arIm, sc)
	}
	if err != nil {
		return err
	}
	jtc.AddShots(int64(p.executedShots()) * int64(len(kps)))
	return nil
}

// convKernelsLockstep sweeps every kernel plan against the one-slot arena
// spectrum in lockstep groups of up to LockstepWidth, adding the shot's
// window into each accs[j] from entry at on, in j order (the scalar sweep
// order).
func (p *Plan) convKernelsLockstep(kps []*KernelPlan, accs [][]float64, pass, sigLen int, a *fourier.SpectrumArena, sc *batchScratch, at int, win fourier.Window) error {
	re, im := a.Slot(0)
	nl := 0
	for j, kp := range kps {
		sc.lanes[nl] = fourier.ConvLane{Plan: kp.corrs[pass], SpecRe: re, SpecIm: im, Acc: accs[j][at:], Window: win}
		nl++
		if nl == fourier.LockstepWidth || j == len(kps)-1 {
			if err := fourier.ConvolveLanesSoA(sigLen, sc.lanes[:nl]); err != nil {
				return err
			}
			nl = 0
		}
	}
	return nil
}

func (p *Plan) convRowTiledAccMany(input [][]float64, kps []*KernelPlan, accs [][]float64, g, arRe, arIm []float64, sc *batchScratch) error {
	ref := kps[0].corrs[0]
	lk := kps[0].lks[0]
	colOff := p.padL
	if p.ColumnPad && p.Pad == tensor.Same {
		colOff = 0
	}
	a := &sc.arenas[0]
	bins := ref.SpectrumLen()
	if err := a.Reset(arRe[:bins], arIm[:bins], bins); err != nil {
		return err
	}
	for shot := 0; shot*p.Nor < p.OutH; shot++ {
		rOut0 := shot * p.Nor
		p.tileRowsInto(g, input, rOut0-p.padT, p.RowsPerShot)
		if err := ref.TransformSignalSoA(a, 0, g); err != nil {
			return err
		}
		at, win := p.rowTiledWindow(lk, rOut0, colOff)
		if err := p.convKernelsLockstep(kps, accs, 0, len(g), a, sc, at, win); err != nil {
			return err
		}
	}
	return nil
}

func (p *Plan) convPartialAccMany(input [][]float64, kps []*KernelPlan, accs [][]float64, g, arRe, arIm []float64, sc *batchScratch) error {
	colOff := p.padL
	if p.ColumnPad && p.Pad == tensor.Same {
		colOff = 0
	}
	a := &sc.arenas[0]
	for r := 0; r < p.OutH; r++ {
		for pass := range kps[0].corrs {
			j0 := pass * p.RowsPerShot
			nRows := min(p.RowsPerShot, p.K-j0)
			p.tileRowsInto(g, input, r-p.padT+j0, nRows)
			ref := kps[0].corrs[pass]
			bins := ref.SpectrumLen()
			if err := a.Reset(arRe[:bins], arIm[:bins], bins); err != nil {
				return err
			}
			if err := ref.TransformSignalSoA(a, 0, g); err != nil {
				return err
			}
			at, win := p.partialWindow(kps[0].lks[pass], r, colOff)
			if err := p.convKernelsLockstep(kps, accs, pass, len(g), a, sc, at, win); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Plan) convPartitionedAccMany(input [][]float64, kps []*KernelPlan, accs [][]float64, seg, arRe, arIm []float64, sc *batchScratch) error {
	step := p.NConv - p.K + 1
	if step < 1 {
		return fmt.Errorf("tiling: NConv %d cannot fit kernel %d with halo", p.NConv, p.K)
	}
	a := &sc.arenas[0]
	for r := 0; r < p.OutH; r++ {
		for j := 0; j < p.K; j++ {
			ri := r - p.padT + j
			if ri < 0 || ri >= p.H {
				continue
			}
			in := input[ri]
			ref := kps[0].corrs[j]
			bins := ref.SpectrumLen()
			if err := a.Reset(arRe[:bins], arIm[:bins], bins); err != nil {
				return err
			}
			for c0 := 0; c0 < p.OutW; c0 += step {
				for i := range seg {
					ix := c0 - p.padL + i
					if ix < 0 || ix >= p.W {
						seg[i] = 0
					} else {
						seg[i] = in[ix]
					}
				}
				if err := ref.TransformSignalSoA(a, 0, seg); err != nil {
					return err
				}
				at, win := p.partitionedWindow(r, c0, step)
				if err := p.convKernelsLockstep(kps, accs, j, len(seg), a, sc, at, win); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
