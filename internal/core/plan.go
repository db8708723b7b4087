package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"photofourier/internal/nn"
	"photofourier/internal/quant"
	"photofourier/internal/tensor"
	"photofourier/internal/tiling"
)

// planConfig snapshots the engine knobs the plan's cached artifacts were
// compiled against. Runtime knobs (NTA, ADCBits, Detector, ReadoutNoise,
// Parallelism) are read live at every call; only the fields below bake into
// the cached weights and kernel spectra.
type planConfig struct {
	dacBits int
	tiled   bool
	nconv   int
}

// LayerPlan is the compiled inference path for one convolution layer on the
// quantized accelerator: weights are quantized and sign-split ONCE at plan
// time, their pseudo-negative parts cached, and — on the tiled path — every
// (output-channel, input-channel) kernel tile transformed to the frequency
// domain once and latched, so repeated forward passes (batches, accuracy
// sweeps, Fig. 7 NTA sweeps over the same trained net) pay zero weight-setup
// cost. That is the software mirror of the hardware story: weights stay in
// the DACs while only activations stream.
//
// Every entry point — Conv2D, ForwardBatchCalls and BeginBatchRange/Finish —
// is a thin wrapper over one run (convRun, run.go) and differs only in the
// calibration domain it picks. Conv2D output is bit-identical to the owning
// Engine's unplanned Conv2D on the same operands, at every worker count,
// for a fixed seed and matching call sequence. A LayerPlan is safe for
// concurrent calls (runs with a noisy detector stay race-free but
// interleave the detector's shared noise stream nondeterministically, as
// with any shared noisy engine).
type LayerPlan struct {
	engine *Engine
	cfg    planConfig

	// Note: the plan does not retain the source weight tensor; staleness
	// on weight mutation is the holder's job (nn.Conv invalidates on
	// Backward). bias is retained by reference and read live at each
	// call, like the unplanned path.
	bias   []float64
	stride int
	pad    tensor.PadMode

	cout, cin, k int

	// wq is the signed quantized weight tensor driving the direct sweep;
	// wpos/wneg are its cached pseudo-negative parts (nil when absent),
	// driving term presence and the tiled path.
	wq         []float64
	wpos, wneg *tensor.Tensor

	mu   sync.Mutex
	geos map[geoKey]*layerGeo

	// Cached operating-group tables (read-only once built): groups mirrors
	// groupRanges(cin, NTA) for the NTA observed at last use, chanGroups the
	// per-channel detector granularity. Rebuilt under mu when NTA changes.
	groupsNTA  int
	groups     [][2]int
	chanGroups [][2]int
}

// cachedGroups returns groupRanges(lp.cin, nta) without allocating in steady
// state; the table is rebuilt only when the engine's NTA changed since the
// previous call. Callers must treat the result as read-only.
func (lp *LayerPlan) cachedGroups(nta int) [][2]int {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if lp.groups == nil || lp.groupsNTA != nta {
		lp.groups = groupRanges(lp.cin, nta)
		lp.groupsNTA = nta
	}
	return lp.groups
}

// channelGroups is cachedGroups for the per-channel detector granularity
// (one group per input channel).
func (lp *LayerPlan) channelGroups() [][2]int {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if lp.chanGroups == nil {
		lp.chanGroups = groupRanges(lp.cin, 1)
	}
	return lp.chanGroups
}

type geoKey struct{ h, w int }

// layerGeo caches the tiled-path artifacts for one input geometry: the
// tiling plan plus the per-(oc, ic) kernel-tile spectra of each weight sign.
type layerGeo struct {
	tp         *tiling.Plan
	kpos, kneg []*tiling.KernelPlan
}

// PlanConv implements nn.LayerPlanner: it compiles the layer's weights into
// a reusable LayerPlan. The returned plan holds bias by reference (bias
// values are applied at readout time, exactly like the unplanned path).
func (e *Engine) PlanConv(weight *tensor.Tensor, bias []float64, stride int, pad tensor.PadMode) (nn.LayerPlan, error) {
	if weight.Rank() != 4 {
		return nil, fmt.Errorf("core: PlanConv wants [Cout][Cin][K][K] weights, got %v", weight.Shape)
	}
	if weight.Shape[2] != weight.Shape[3] {
		return nil, fmt.Errorf("core: PlanConv wants square kernels, got %v", weight.Shape)
	}
	if stride < 1 {
		return nil, fmt.Errorf("core: stride %d must be >= 1", stride)
	}
	wq, err := quantizeParts(weight, e.DACBits)
	if err != nil {
		return nil, err
	}
	lp := &LayerPlan{
		engine: e,
		cfg:    planConfig{dacBits: e.DACBits, tiled: e.UseTiledPath, nconv: e.NConv},
		bias:   bias,
		stride: stride,
		pad:    pad,
		cout:   weight.Shape[0],
		cin:    weight.Shape[1],
		k:      weight.Shape[2],
		wpos:   wq.pos,
		wneg:   wq.neg,
		geos:   map[geoKey]*layerGeo{},
	}
	// Recombine the cached parts into the signed quantized tensor the direct
	// sweep consumes (parts are disjoint, so this is exact).
	lp.wq = make([]float64, weight.Size())
	if wq.pos != nil {
		for i, v := range wq.pos.Data {
			if v != 0 {
				lp.wq[i] = v
			}
		}
	}
	if wq.neg != nil {
		for i, v := range wq.neg.Data {
			if v != 0 {
				lp.wq[i] = -v
			}
		}
	}
	return lp, nil
}

// Stale implements nn.LayerPlan: it reports whether the engine knobs baked
// into the cached weights/spectra have changed since compilation.
func (lp *LayerPlan) Stale() bool {
	e := lp.engine
	return e.DACBits != lp.cfg.dacBits ||
		e.UseTiledPath != lp.cfg.tiled ||
		(lp.cfg.tiled && e.NConv != lp.cfg.nconv)
}

// Conv2D implements nn.LayerPlan: one planned forward pass over an NCHW
// batch in the whole-call calibration domain, bit-identical to
// Engine.Conv2D(input, weight, bias, stride, pad).
func (lp *LayerPlan) Conv2D(input *tensor.Tensor) (*tensor.Tensor, error) {
	var r convRun
	if err := r.begin(lp, input, 0, lp.cout, 0, 0, true); err != nil {
		return nil, err
	}
	return r.finish(nil)
}

// geometry returns the cached tiled-path artifacts for one input geometry,
// building them on first use: the kernel tiles of both weight signs are
// transformed exactly once per (plan, geometry) and reused by every
// subsequent call.
func (lp *LayerPlan) geometry(h, w int) (*layerGeo, error) {
	key := geoKey{h, w}
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if g, ok := lp.geos[key]; ok {
		return g, nil
	}
	// Dead aperture rows quarantined by the fault injector are scheduled
	// around by the batch packer; a healthy engine takes the plain plan.
	tp, err := tiling.NewPlanAvoiding(h, w, lp.k, lp.cfg.nconv, lp.pad, false, lp.engine.Faults.DeadSlots())
	if err != nil {
		return nil, err
	}
	geo := &layerGeo{tp: tp}
	plan := func(wt *tensor.Tensor) ([]*tiling.KernelPlan, error) {
		if wt == nil {
			return nil, nil
		}
		kps := make([]*tiling.KernelPlan, lp.cout*lp.cin)
		kern := make([][]float64, lp.k)
		for oc := 0; oc < lp.cout; oc++ {
			for ic := 0; ic < lp.cin; ic++ {
				kbase := ((oc * lp.cin) + ic) * lp.k * lp.k
				for r := 0; r < lp.k; r++ {
					kern[r] = wt.Data[kbase+r*lp.k : kbase+(r+1)*lp.k]
				}
				kp, err := tp.PlanKernel(kern)
				if err != nil {
					return nil, err
				}
				kps[oc*lp.cin+ic] = kp
			}
		}
		return kps, nil
	}
	if geo.kpos, err = plan(lp.wpos); err != nil {
		return nil, err
	}
	if geo.kneg, err = plan(lp.wneg); err != nil {
		return nil, err
	}
	lp.geos[key] = geo
	return geo, nil
}

// detectBuffers applies the detector's Detect stage to every group buffer.
// Noise-free detectors run on the worker pool (order-independent); noisy
// ones stay serial in canonical group order so the shared noise stream is
// consumed exactly as the unplanned path consumes it. The noise-free
// linear-power detector skips the stage entirely (identity).
func (e *Engine) detectBuffers(bufs [][]float64, workers int) error {
	det := e.Detector
	if identity, _ := detectorFastPaths(det); identity {
		return nil
	}
	if detectorNoiseFree(det) {
		return tensor.ParallelFor(len(bufs), workers, func(gi int) error {
			b := bufs[gi]
			for i, v := range b {
				b[i] = det.Detect(v)
			}
			return nil
		})
	}
	for _, b := range bufs {
		for i, v := range b {
			b[i] = det.Detect(v)
		}
	}
	return nil
}

// mergeGroups sums per-channel detected charges into operating groups
// (pooled buffers), in the same order the unplanned path merges them.
func mergeGroups(per [][]float64, groups [][2]int) [][]float64 {
	out := getViews(len(groups))
	for gi, g := range groups {
		acc := getFloats(len(per[g[0]]))
		copy(acc, per[g[0]])
		for c := g[0] + 1; c < g[1]; c++ {
			src := per[c]
			for i, v := range src {
				acc[i] += v
			}
		}
		out[gi] = acc
	}
	return out
}

// readoutAccum is readout with the signed accumulation into out fused into
// the same pass: every element undergoes the identical noise / clamp /
// quantize / post-readout sequence, and the rounded value is added to out
// instead of being stored back first. Values are bit-identical to readout
// followed by out[i] += sgn*psum[i].
func (e *Engine) readoutAccum(psum []float64, scale float64, rng *rand.Rand, sgn float64, out []float64) error {
	out = out[:len(psum)]
	det := e.Detector
	_, postIdentity := detectorFastPaths(det)
	if e.ADCBits > 0 {
		if e.ADCBits > 32 {
			return fmt.Errorf("core: ADC bits %d out of range", e.ADCBits)
		}
		if scale <= 0 {
			scale = 1
		}
		step := scale / float64((uint64(1)<<e.ADCBits)-1)
		sigma := e.ReadoutNoise * scale
		if sigma > 0 {
			if rng == nil {
				return fmt.Errorf("core: readout noise configured without an RNG substream")
			}
			for i, v := range psum {
				v += rng.NormFloat64() * sigma
				if v < 0 {
					v = 0
				} else if v > scale {
					v = scale
				}
				v = math.Round(v/step) * step
				if !postIdentity {
					v = det.PostReadout(v)
				}
				out[i] += sgn * v
			}
			return nil
		}
		if postIdentity {
			// The ADC's converter loop (a packed kernel on AVX-512F
			// hosts). Its clamp is Quantize's two ifs over [0, scale];
			// scale is positive or NaN here, so they leave every value as
			// the else-if chains above do.
			adc := quant.Linear{Bits: e.ADCBits, Max: scale, Unsigned: true}
			adc.QuantizeAccum(out, psum, sgn)
			return nil
		}
		for i, v := range psum {
			if v < 0 {
				v = 0
			} else if v > scale {
				v = scale
			}
			out[i] += sgn * det.PostReadout(math.Round(v/step)*step)
		}
		return nil
	}
	if postIdentity {
		for i, v := range psum {
			out[i] += sgn * v
		}
		return nil
	}
	for i, v := range psum {
		out[i] += sgn * det.PostReadout(v)
	}
	return nil
}

// quantizeSplitInto performs the fused quantize + sign-split pass over src
// into the pos/neg buffers and reports which signs occurred: the DAC's
// quant.Linear.QuantizeSplit when q is set (bit-identical to Quantize
// per element), the bare split at full precision otherwise.
func quantizeSplitInto(posBuf, negBuf, src []float64, q *quant.Linear) (hasPos, hasNeg bool) {
	if q != nil {
		return q.QuantizeSplit(posBuf, negBuf, src)
	}
	posBuf = posBuf[:len(src)]
	negBuf = negBuf[:len(src)]
	for i, v := range src {
		var p, ng float64
		if v > 0 {
			p = v
			hasPos = true
		} else if v < 0 {
			ng = -v
			hasNeg = true
		}
		posBuf[i], negBuf[i] = p, ng
	}
	return hasPos, hasNeg
}
