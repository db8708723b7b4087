// Package core is the executable form of the paper's primary contribution:
// the PhotoFourier convolution engine. It combines row tiling (Sec. III),
// the JTC compute unit abstraction (Sec. IV), pseudo-negative filters and
// 8-bit quantization (Sec. VI-A), and photodetector-side temporal
// accumulation with ADC readout (Sec. V-C) into nn.ConvEngine
// implementations that run real CNN inference:
//
//   - RowTiledEngine: exact-arithmetic row-tiled 1D convolution — the
//     "theoretical accuracy" substrate of Table I.
//   - Engine: the full functional accelerator — quantized operands,
//     grouped temporal accumulation, detector noise, ADC readout — the
//     substrate of the Fig. 7 temporal-accumulation study.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"photofourier/internal/fault"
	"photofourier/internal/jtc"
	"photofourier/internal/nn"
	"photofourier/internal/quant"
	"photofourier/internal/tensor"
	"photofourier/internal/tiling"
)

// RowTiledEngine computes convolutions through the paper's row
// tiling/partitioning algorithm at full float precision. Same-mode layers
// exhibit the edge effect unless ColumnPad is set (Sec. III-A).
type RowTiledEngine struct {
	NConv     int  // 1D convolution aperture (PFCU input waveguides)
	ColumnPad bool // zero-pad rows: exact Same-mode equality, lower utilization

	// Parallelism bounds the worker pool Conv2D spreads (batch x
	// output-channel) work items over. <= 0 selects runtime.NumCPU(); 1
	// runs serially. Parallel output is bit-identical to serial.
	Parallelism int

	mu    sync.Mutex
	plans map[planKey]*tiling.Plan
}

type planKey struct {
	h, w, k int
	pad     tensor.PadMode
	colPad  bool
}

// NewRowTiledEngine builds the Table I substrate with the given aperture.
func NewRowTiledEngine(nconv int) *RowTiledEngine {
	return &RowTiledEngine{NConv: nconv, plans: make(map[planKey]*tiling.Plan)}
}

// Name implements nn.ConvEngine.
func (e *RowTiledEngine) Name() string {
	if e.ColumnPad {
		return "row-tiled-1d (column padded)"
	}
	return "row-tiled-1d"
}

// Capabilities implements nn.CapabilityReporter: exact full-precision
// arithmetic (deterministic, unquantized) with no layer planning.
func (e *RowTiledEngine) Capabilities() nn.Capabilities {
	return nn.Capabilities{DefaultAperture: DefaultAperture}
}

func (e *RowTiledEngine) plan(h, w, k int, pad tensor.PadMode) (*tiling.Plan, error) {
	key := planKey{h, w, k, pad, e.ColumnPad}
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.plans[key]; ok {
		return p, nil
	}
	p, err := tiling.NewPlan(h, w, k, e.NConv, pad, e.ColumnPad)
	if err != nil {
		return nil, err
	}
	e.plans[key] = p
	return p, nil
}

// Conv2D implements nn.ConvEngine: every (sample, output-channel, input-
// channel) plane convolution runs through 1D shots; channel sums accumulate
// at full precision; strided layers compute at unit stride and decimate.
//
// Each (output-channel, input-channel) kernel tile is transformed to the
// frequency domain exactly once per call and its spectrum reused across
// every shot and batch sample — mirroring how the hardware latches weights
// while streaming activations. Work items (one per batch sample and output
// channel) run on a worker pool sized by Parallelism; each item accumulates
// its input channels in a fixed order into a disjoint output region, so the
// result is bit-identical at any worker count.
func (e *RowTiledEngine) Conv2D(input, weight *tensor.Tensor, bias []float64, stride int, pad tensor.PadMode) (*tensor.Tensor, error) {
	return e.conv2D(input, weight, bias, stride, pad, tensor.Workers(e.Parallelism))
}

// conv2D is Conv2D with an explicit worker count, so callers embedding a
// shared RowTiledEngine (Engine's tiled path) can choose parallelism per
// call without mutating the shared instance.
func (e *RowTiledEngine) conv2D(input, weight *tensor.Tensor, bias []float64, stride int, pad tensor.PadMode, workers int) (*tensor.Tensor, error) {
	n, cin, h, w := input.Shape[0], input.Shape[1], input.Shape[2], input.Shape[3]
	cout, k := weight.Shape[0], weight.Shape[2]
	if weight.Shape[1] != cin {
		return nil, fmt.Errorf("core: %w: channel mismatch %d vs %d", nn.ErrShapeMismatch, weight.Shape[1], cin)
	}
	p, err := e.plan(h, w, k, pad)
	if err != nil {
		return nil, err
	}
	// One kernel spectrum per (oc, ic) plane, shared read-only by all
	// workers for the whole layer.
	kplans := make([]*tiling.KernelPlan, cout*cin)
	kern := make([][]float64, k)
	for oc := 0; oc < cout; oc++ {
		for ic := 0; ic < cin; ic++ {
			kbase := ((oc * cin) + ic) * k * k
			for r := 0; r < k; r++ {
				kern[r] = weight.Data[kbase+r*k : kbase+(r+1)*k]
			}
			kp, err := p.PlanKernel(kern)
			if err != nil {
				return nil, err
			}
			kplans[oc*cin+ic] = kp
		}
	}
	full := tensor.New(n, cout, p.OutH, p.OutW)
	err = tensor.ParallelFor(n*cout, workers, func(item int) error {
		b, oc := item/cout, item%cout
		// All cin channels are one accumulation group: each shot sums
		// their kernel products in the frequency domain.
		planes := make([][][]float64, cin)
		for ic := range planes {
			base := ((b * cin) + ic) * h * w
			planes[ic] = make([][]float64, h)
			for r := 0; r < h; r++ {
				planes[ic][r] = input.Data[base+r*w : base+(r+1)*w]
			}
		}
		acc := full.Data[((b*cout)+oc)*p.OutH*p.OutW : ((b*cout)+oc+1)*p.OutH*p.OutW]
		if err := p.Conv2DPlannedAccum(planes, kplans[oc*cin:(oc+1)*cin], acc); err != nil {
			return err
		}
		if bias != nil {
			for i := range acc {
				acc[i] += bias[oc]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if stride > 1 {
		return tensor.Decimate2D(full, stride)
	}
	return full, nil
}

// Engine is the full PhotoFourier functional accelerator. Operands are
// quantized to DAC precision, signed weights split into pseudo-negative
// pairs, input channels processed in temporal-accumulation groups whose
// partial sums accumulate at full precision in photodetector charge, and
// each group readout passes through detector noise and ADC quantization.
type Engine struct {
	NTA      int // temporal accumulation depth (Fig. 7 sweep variable)
	ADCBits  int // partial-sum readout precision; 0 = full precision ("fp psum")
	DACBits  int // activation/weight precision; 0 = full precision
	Detector jtc.Detector

	// ADCCalibPercentile sets the readout full scale from the observed
	// psum distribution per layer (>= 1 or 0 selects max-based
	// calibration).
	ADCCalibPercentile float64

	// ReadoutNoise is the dark-current sensing noise added at every ADC
	// readout, as a fraction of the hardware full scale. Shallow temporal
	// accumulation performs more readouts and accumulates more of it —
	// the second Fig. 7 mechanism (shot noise, by contrast, integrates
	// identically at every depth and is modeled in the Detector).
	ReadoutNoise float64

	// ReadoutSeed seeds the readout-noise substreams. It is resolved once
	// at construction (NewEngine and the backend registry map 0 to
	// DefaultReadoutSeed) and must not change afterwards. Every (Conv2D
	// call, cross term, accumulation group) readout
	// draws from its own deterministic RNG substream derived from this
	// seed, so group readouts can run on the worker pool while staying
	// bit-identical to a serial run — and the planned and unplanned paths
	// consume identical noise for a fixed call sequence.
	ReadoutSeed int64
	calls       atomic.Uint64 // Conv2D invocations, decorrelates per-call noise

	// Faults is the optional deterministic fault injector (see
	// internal/fault and fault.go in this package): transient shot
	// misfires with guarded retry, laser-power drift with periodic
	// recalibration probes, ADC stuck bits, dead aperture rows, and full
	// outage. nil (or a zero-rate injector) leaves every readout
	// bit-identical to a fault-free engine.
	Faults *fault.Injector

	// Parallelism bounds the worker pool the convolution sweeps spread
	// their work items over: (batch x output-channel) on the unplanned
	// path, output channels on the planned direct path and accumulation
	// groups on the planned tiled path. <= 0 selects runtime.NumCPU(); 1
	// runs serially. Detector noise sampling and ADC readout stay serial in
	// group order, so parallel output is bit-identical to serial for a
	// fixed seed.
	Parallelism int

	// UseTiledPath routes every plane convolution through the exact 1D
	// row-tiled shots (slow, full fidelity). The default fast path uses
	// direct 2D convolution for the group partial sums, which is
	// numerically identical except for the row-edge effect quantified by
	// the Table I experiment.
	UseTiledPath bool
	NConv        int // aperture for the tiled path

	// rt is the long-lived row-tiled inner engine of the unplanned tiled
	// path, built lazily and reused across Conv2D calls so the tiling-plan
	// cache survives between layers (kernel spectra still re-plan per call
	// on this path; LayerPlan caches those too).
	rtMu sync.Mutex
	rt   *RowTiledEngine
}

// NewEngine builds the paper's default operating point: 16-deep temporal
// accumulation, 8-bit ADC and DACs, noiseless linear-power detection,
// max-based ADC range calibration.
func NewEngine() *Engine {
	return &Engine{
		NTA:                16,
		ADCBits:            8,
		DACBits:            8,
		Detector:           jtc.NewLinearPowerDetector(0, 0, 0),
		ADCCalibPercentile: 1,
		NConv:              DefaultAperture,
		ReadoutSeed:        DefaultReadoutSeed,
	}
}

// DefaultReadoutSeed seeds the readout-noise substreams when no explicit
// seed is chosen. Seed resolution happens exactly once, at construction
// (NewEngine, or the backend registry's Open): the runtime consumes
// ReadoutSeed as-is.
const DefaultReadoutSeed = 12345

// DefaultAperture is the paper's PFCU input width (256 waveguides).
const DefaultAperture = 256

// mix64 is the splitmix64 finalizer: a fast bijective hash used to derive
// independent RNG substreams from (seed, call, term, group) coordinates.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// readoutStream returns the deterministic readout-noise RNG for one
// (Conv2D call, cross term, group) readout. Substreams are independent of
// readout execution order, so the planned path reproduces the unplanned
// path exactly, whatever order either reads its groups out in.
// ReadoutSeed is consumed as-is: construction (NewEngine or backend.Open)
// already resolved a zero seed to DefaultReadoutSeed, so no runtime
// re-fallback happens here.
func (e *Engine) readoutStream(call uint64, term, group int) *rand.Rand {
	h := mix64(uint64(e.ReadoutSeed))
	h = mix64(h ^ call)
	h = mix64(h ^ uint64(term)<<32 ^ uint64(group))
	return rand.New(rand.NewSource(int64(h)))
}

// tiledEngine returns the engine's long-lived row-tiled inner engine,
// rebuilding it only when the aperture changes. The engine's Parallelism is
// passed per call (conv2D), never written into the shared inner engine, so
// concurrent Conv2D calls on one Engine stay race-free.
func (e *Engine) tiledEngine() *RowTiledEngine {
	e.rtMu.Lock()
	defer e.rtMu.Unlock()
	if e.rt == nil || e.rt.NConv != e.NConv {
		e.rt = NewRowTiledEngine(e.NConv)
	}
	return e.rt
}

// Name implements nn.ConvEngine.
func (e *Engine) Name() string {
	return fmt.Sprintf("photofourier(nta=%d,adc=%d,dac=%d,%s)", e.NTA, e.ADCBits, e.DACBits, e.Detector.Name())
}

// Capabilities implements nn.CapabilityReporter: the accelerator plans
// layers (weights latched once) and quantizes operands; it is noisy exactly
// when a noise source is configured.
func (e *Engine) Capabilities() nn.Capabilities {
	noisy := e.ReadoutNoise > 0
	if e.Detector != nil && !detectorNoiseFree(e.Detector) {
		noisy = true
	}
	if e.Faults.Active() {
		// An active fault model perturbs readouts (drift, stuck bits) or can
		// fail calls outright; batch invariance no longer holds.
		noisy = true
	}
	return nn.Capabilities{
		Plannable:       true,
		Noisy:           noisy,
		Quantized:       e.ADCBits > 0 || e.DACBits > 0,
		DefaultAperture: DefaultAperture,
	}
}

// Conv2D implements nn.ConvEngine.
func (e *Engine) Conv2D(input, weight *tensor.Tensor, bias []float64, stride int, pad tensor.PadMode) (*tensor.Tensor, error) {
	if e.NTA < 1 {
		return nil, fmt.Errorf("core: NTA %d must be >= 1", e.NTA)
	}
	n, cin, h, w := input.Shape[0], input.Shape[1], input.Shape[2], input.Shape[3]
	cout, k := weight.Shape[0], weight.Shape[2]
	if weight.Shape[1] != cin {
		return nil, fmt.Errorf("core: %w: channel mismatch %d vs %d", nn.ErrShapeMismatch, weight.Shape[1], cin)
	}
	// Quantize operands to DAC precision and split signs: activations and
	// weights each decompose into non-negative (positive, negative) parts;
	// the four cross terms recombine digitally with the right signs.
	xq, err := quantizeParts(input, e.DACBits)
	if err != nil {
		return nil, err
	}
	wq, err := quantizeParts(weight, e.DACBits)
	if err != nil {
		return nil, err
	}

	oh, ow := convOutHW(h, w, k, pad)
	out := tensor.New(n, cout, oh, ow)
	groups := groupRanges(cin, e.NTA)
	callIdx := e.calls.Add(1)
	if err := e.checkOutage(callIdx); err != nil {
		return nil, err
	}
	for term, sgn := range [...]struct {
		x, w  *tensor.Tensor
		scale float64
	}{
		{xq.pos, wq.pos, 1},
		{xq.pos, wq.neg, -1},
		{xq.neg, wq.pos, -1},
		{xq.neg, wq.neg, 1},
	} {
		if sgn.x == nil || sgn.w == nil {
			continue
		}
		// Compute every group's full-precision charge first. The ADC full
		// scale is a per-layer hardware constant sized for the deepest
		// accumulation the design supports (16 channels), NOT adapted per
		// readout: shallow operating depths therefore spend the same
		// absolute quantization step on each of their many readouts, and
		// the rounding errors accumulate — exactly the 8-bit partial-sum
		// precision loss the Fig. 7 sweep quantifies (Sec. V-C1).
		psums, err := e.groupPsums(sgn.x, sgn.w, groups, pad)
		if err != nil {
			return nil, err
		}
		data := make([][]float64, len(psums))
		for gi, p := range psums {
			data[gi] = p.Data
		}
		scale := e.hardwareScale(data, cin)
		for gi, psum := range psums {
			var rng *rand.Rand
			if e.ReadoutNoise > 0 && e.ADCBits > 0 {
				rng = e.readoutStream(callIdx, term, gi)
			}
			if err := e.applyGroupFaults(callIdx, term, gi, psum.Data, scale); err != nil {
				return nil, err
			}
			if err := e.readout(psum.Data, scale, rng); err != nil {
				return nil, err
			}
			for i, v := range psum.Data {
				out.Data[i] += sgn.scale * v
			}
		}
	}
	if bias != nil {
		strideC := oh * ow
		for b := 0; b < n; b++ {
			for oc := 0; oc < cout; oc++ {
				base := (b*cout + oc) * strideC
				for i := 0; i < strideC; i++ {
					out.Data[base+i] += bias[oc]
				}
			}
		}
	}
	if stride > 1 {
		return tensor.Decimate2D(out, stride)
	}
	return out, nil
}

// groupPsums computes the full-precision partial sums of every temporal-
// accumulation group in one sweep (the charge deposited at the
// photodetector before each readout). For square-law detection the Detect
// stage applies per channel before accumulation; for linear power encoding
// it applies once per group.
func (e *Engine) groupPsums(x, wt *tensor.Tensor, groups [][2]int, pad tensor.PadMode) ([]*tensor.Tensor, error) {
	if e.UseTiledPath {
		return e.groupPsumsTiled(x, wt, groups, pad)
	}
	detectGranularity := groups
	if e.Detector.PerChannel() {
		// One conv "group" per channel so Detect sees each channel.
		cin := x.Shape[1]
		detectGranularity = groupRanges(cin, 1)
	}
	per, err := groupedConv2D(x, wt, detectGranularity, pad, tensor.Workers(e.Parallelism))
	if err != nil {
		return nil, err
	}
	for _, p := range per {
		for i, v := range p.Data {
			p.Data[i] = e.Detector.Detect(v)
		}
	}
	if !e.Detector.PerChannel() {
		return per, nil
	}
	// Merge the per-channel detected charges into the operating groups.
	out := make([]*tensor.Tensor, len(groups))
	for gi, g := range groups {
		acc := per[g[0]].Clone()
		for c := g[0] + 1; c < g[1]; c++ {
			if err := acc.AddInPlace(per[c]); err != nil {
				return nil, err
			}
		}
		out[gi] = acc
	}
	return out, nil
}

// groupPsumsTiled is the full-fidelity path: every group's plane
// convolution runs through exact 1D row-tiled shots, its channels summed in
// the frequency domain (one conv2D call per group), which makes it the
// bitwise oracle of the planned tiled executor.
func (e *Engine) groupPsumsTiled(x, wt *tensor.Tensor, groups [][2]int, pad tensor.PadMode) ([]*tensor.Tensor, error) {
	// The long-lived inner engine parallelizes each group's (batch x
	// output-channel) sweep; groups stay serial so Detect consumes detector
	// noise in the same order as a fully serial run.
	rt := e.tiledEngine()
	workers := tensor.Workers(e.Parallelism)
	out := make([]*tensor.Tensor, len(groups))
	for gi, g := range groups {
		xs, err := sliceChannels(x, g[0], g[1])
		if err != nil {
			return nil, err
		}
		ws, err := sliceWeightChannels(wt, g[0], g[1])
		if err != nil {
			return nil, err
		}
		psum, err := rt.conv2D(xs, ws, nil, 1, pad, workers)
		if err != nil {
			return nil, err
		}
		for i, v := range psum.Data {
			psum.Data[i] = e.Detector.Detect(v)
		}
		out[gi] = psum
	}
	return out, nil
}

// groupedConv2D computes, for each channel group, the unit-stride
// convolution partial sum over just that group's input channels — a single
// sweep sharing the loop structure of tensor.Conv2D so narrow groups do not
// pay per-call overhead. The (batch x output-channel) work items run on up
// to workers goroutines; each item writes a disjoint slice of every group's
// output and keeps its group/channel/tap loops in serial order, so the
// result is bit-identical at any worker count.
func groupedConv2D(x, wt *tensor.Tensor, groups [][2]int, pad tensor.PadMode, workers int) ([]*tensor.Tensor, error) {
	n, cin, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cout, k := wt.Shape[0], wt.Shape[2]
	if wt.Shape[1] != cin {
		return nil, fmt.Errorf("core: %w: grouped conv channel mismatch %d vs %d", nn.ErrShapeMismatch, wt.Shape[1], cin)
	}
	padT, padL := 0, 0
	oh, ow := h-k+1, w-k+1
	if pad == tensor.Same {
		padT, padL = tensor.SamePad(k), tensor.SamePad(k)
		oh, ow = h, w
	}
	if oh < 1 || ow < 1 {
		return nil, fmt.Errorf("core: grouped conv empty output for %v k=%d", x.Shape, k)
	}
	out := make([]*tensor.Tensor, len(groups))
	for gi := range groups {
		out[gi] = tensor.New(n, cout, oh, ow)
	}
	// Shift-and-add formulation: each kernel tap contributes one shifted,
	// scaled copy of the input plane. The inner loops are long contiguous
	// rows with no per-element bounds checks, which is what keeps narrow
	// temporal-accumulation groups from paying per-pixel overhead.
	err := tensor.ParallelFor(n*cout, workers, func(item int) error {
		b, oc := item/cout, item%cout
		for gi, g := range groups {
			dst := out[gi].Data[(b*cout+oc)*oh*ow : (b*cout+oc+1)*oh*ow]
			for ic := g[0]; ic < g[1]; ic++ {
				inBase := (b*cin + ic) * h * w
				wBase := (oc*cin + ic) * k * k
				for ky := 0; ky < k; ky++ {
					dy := ky - padT
					oy0, oy1 := 0, oh
					if dy < 0 {
						oy0 = -dy
					}
					if dy+oy1 > h {
						oy1 = h - dy
					}
					for kx := 0; kx < k; kx++ {
						wv := wt.Data[wBase+ky*k+kx]
						if wv == 0 {
							continue
						}
						dx := kx - padL
						ox0, ox1 := 0, ow
						if dx < 0 {
							ox0 = -dx
						}
						if dx+ox1 > w {
							ox1 = w - dx
						}
						for oy := oy0; oy < oy1; oy++ {
							srcRow := x.Data[inBase+(oy+dy)*w+dx+ox0 : inBase+(oy+dy)*w+dx+ox1]
							dstRow := dst[oy*ow+ox0 : oy*ow+ox1]
							for i, sv := range srcRow {
								dstRow[i] += wv * sv
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// hardwareAccumulationDepth is the photodetector/ADC design depth: the
// charge wells and ADC full scale are sized for 16-channel accumulation
// (the paper's chosen depth), independent of the operating depth.
const hardwareAccumulationDepth = 16

// hardwareChunk merges operating groups into hardware accumulation groups:
// the design depth — at least the operating depth, at most cin — spans per
// operating groups, and nGroups operating groups make count hardware ones.
func (e *Engine) hardwareChunk(cin, nGroups int) (per, count int) {
	hwDepth := min(max(hardwareAccumulationDepth, e.NTA), cin)
	per = max((hwDepth+e.NTA-1)/e.NTA, 1)
	return per, (nGroups + per - 1) / per
}

// hardwareGroups calls fn with the charge of every hardware accumulation
// group: its operating-group planes summed elementwise into pooled scratch,
// or the one operating group's own plane when it stands alone (summing a
// single plane into zeroed scratch would give the same values).
func (e *Engine) hardwareGroups(psums [][]float64, cin int, fn func(c int, charge []float64)) {
	per, count := e.hardwareChunk(cin, len(psums))
	var acc []float64
	if per > 1 && len(psums) > 1 {
		acc = getFloats(len(psums[0]))
		defer putFloats(acc)
	}
	for c := 0; c < count; c++ {
		lo, hi := c*per, min((c+1)*per, len(psums))
		if hi-lo == 1 {
			fn(c, psums[lo])
			continue
		}
		clear(acc)
		for _, p := range psums[lo:hi] {
			for i, v := range p {
				acc[i] += v
			}
		}
		fn(c, acc)
	}
}

// hardwareScale derives the fixed per-layer ADC full scale: the largest
// charge a design-depth accumulation would deposit. Operating depths below
// the design depth read out fractional charges against this same scale —
// the root of the Fig. 7 accuracy loss at shallow accumulation.
func (e *Engine) hardwareScale(psums [][]float64, cin int) float64 {
	scale := 0.0
	e.hardwareGroups(psums, cin, func(_ int, charge []float64) {
		if s := calibScale(charge, e.ADCCalibPercentile); s > scale {
			scale = s
		}
	})
	if scale <= 0 {
		return 1
	}
	return scale
}

// readout applies ADC quantization (at the fixed per-layer full scale) and
// detector post-processing to a group partial sum in place. The inline
// quantizer is the unsigned quant.Linear rounding rule, hoisted for speed.
// rng supplies the readout-noise substream for this group (nil when
// ReadoutNoise is zero or the ADC is full precision).
func (e *Engine) readout(psum []float64, scale float64, rng *rand.Rand) error {
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
			// Noisy readout stays its own loop so the common noiseless path
			// pays no per-element branch; the per-element arithmetic is
			// identical either way.
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
				psum[i] = math.Round(v/step) * step
			}
		} else {
			for i, v := range psum {
				if v < 0 {
					v = 0
				} else if v > scale {
					v = scale
				}
				psum[i] = math.Round(v/step) * step
			}
		}
	}
	det := e.Detector
	if _, postIdentity := detectorFastPaths(det); postIdentity {
		return nil
	}
	for i, v := range psum {
		psum[i] = det.PostReadout(v)
	}
	return nil
}

// detectorFastPaths reports which detector stages are the identity, letting
// hot paths skip per-element interface calls (value-identical either way).
// Only the linear-power detector qualifies: its PostReadout is always the
// identity, and its Detect too when noise-free.
func detectorFastPaths(d jtc.Detector) (detectIdentity, postIdentity bool) {
	lp, ok := d.(*jtc.LinearPowerDetector)
	if !ok {
		return false, false
	}
	return lp.NoiseFree(), true
}

// detectorNoiseFree reports whether Detect draws no randomness, making its
// application order irrelevant (and therefore parallelizable).
func detectorNoiseFree(d jtc.Detector) bool {
	nf, ok := d.(interface{ NoiseFree() bool })
	return ok && nf.NoiseFree()
}

// UnplannedEngine wraps an Engine while hiding its planning capability
// (nn.LayerPlanner), forcing every convolution through the per-call
// unplanned path — the baseline side of the compiled-vs-uncompiled
// inference benchmarks (BENCH_3.json).
type UnplannedEngine struct{ E *Engine }

// Conv2D implements nn.ConvEngine.
func (u UnplannedEngine) Conv2D(input, weight *tensor.Tensor, bias []float64, stride int, pad tensor.PadMode) (*tensor.Tensor, error) {
	return u.E.Conv2D(input, weight, bias, stride, pad)
}

// Name implements nn.ConvEngine.
func (u UnplannedEngine) Name() string { return u.E.Name() + " (unplanned)" }

// Capabilities implements nn.CapabilityReporter: the wrapped engine's
// capabilities with planning advertised off — the compiler and Conv.Forward
// branch on this instead of type-switching, so the wrapper needs no
// method-set tricks to suppress planning.
func (u UnplannedEngine) Capabilities() nn.Capabilities {
	caps := u.E.Capabilities()
	caps.Plannable = false
	return caps
}

// Calls forwards to the wrapped engine's shared call counter.
func (u UnplannedEngine) Calls() uint64 { return u.E.Calls() }

// AlignCalls forwards to the wrapped engine's shared call counter.
func (u UnplannedEngine) AlignCalls(next uint64) { u.E.AlignCalls(next) }

// Unplanned returns the engine's planning-suppressed twin: identical
// configuration and shared call/noise state, but every convolution runs the
// per-call unplanned path.
func (e *Engine) Unplanned() nn.ConvEngine { return UnplannedEngine{E: e} }

type signedParts struct {
	pos, neg *tensor.Tensor // nil when the corresponding part is all zero
}

// signScan reports which signs occur in data.
func signScan(data []float64) (hasPos, hasNeg bool) {
	for _, v := range data {
		if v > 0 {
			hasPos = true
		} else if v < 0 {
			hasNeg = true
		}
		if hasPos && hasNeg {
			return
		}
	}
	return
}

// partPresence is the pseudo-negative presence rule shared by every
// sign-split path: the positive part exists when positives occur or the
// operand is all zero (shape propagation); the negative part exists only
// when negatives occur.
func partPresence(hasPos, hasNeg bool) (posPresent, negPresent bool) {
	return hasPos || !hasNeg, hasNeg
}

// fillPosPart / fillNegPart write the non-negative sign parts of data into
// dst (every element is written, so dst needs no pre-clearing).
func fillPosPart(dst, data []float64) {
	for i, v := range data {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

func fillNegPart(dst, data []float64) {
	for i, v := range data {
		if v < 0 {
			dst[i] = -v
		} else {
			dst[i] = 0
		}
	}
}

// quantizeParts quantizes t to the given bit width and splits it into
// non-negative positive/negative parts.
func quantizeParts(t *tensor.Tensor, bits int) (signedParts, error) {
	data := t.Data
	if bits > 0 {
		maxAbs := t.MaxAbs()
		if maxAbs == 0 {
			maxAbs = 1
		}
		q, err := quant.NewLinear(bits, maxAbs)
		if err != nil {
			return signedParts{}, err
		}
		data = q.QuantizeSlice(data)
	}
	posPresent, negPresent := partPresence(signScan(data))
	out := signedParts{}
	if posPresent {
		p := tensor.New(t.Shape...)
		fillPosPart(p.Data, data)
		out.pos = p
	}
	if negPresent {
		nn := tensor.New(t.Shape...)
		fillNegPart(nn.Data, data)
		out.neg = nn
	}
	return out, nil
}

func sliceChannels(x *tensor.Tensor, from, to int) (*tensor.Tensor, error) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if from < 0 || to > c || from >= to {
		return nil, fmt.Errorf("core: channel slice [%d,%d) of %d", from, to, c)
	}
	out := tensor.New(n, to-from, h, w)
	for b := 0; b < n; b++ {
		src := x.Data[(b*c+from)*h*w : (b*c+to)*h*w]
		copy(out.Data[b*(to-from)*h*w:], src)
	}
	return out, nil
}

func sliceWeightChannels(wt *tensor.Tensor, from, to int) (*tensor.Tensor, error) {
	cout, cin, kh, kw := wt.Shape[0], wt.Shape[1], wt.Shape[2], wt.Shape[3]
	if from < 0 || to > cin || from >= to {
		return nil, fmt.Errorf("core: weight channel slice [%d,%d) of %d", from, to, cin)
	}
	out := tensor.New(cout, to-from, kh, kw)
	for oc := 0; oc < cout; oc++ {
		src := wt.Data[(oc*cin+from)*kh*kw : (oc*cin+to)*kh*kw]
		copy(out.Data[oc*(to-from)*kh*kw:], src)
	}
	return out, nil
}

func groupRanges(cin, nta int) [][2]int {
	var out [][2]int
	for from := 0; from < cin; from += nta {
		to := from + nta
		if to > cin {
			to = cin
		}
		out = append(out, [2]int{from, to})
	}
	return out
}

func convOutHW(h, w, k int, pad tensor.PadMode) (int, int) {
	if pad == tensor.Same {
		return h, w
	}
	return h - k + 1, w - k + 1
}

// calibScale derives the ADC full scale from a charge distribution: the
// maximum magnitude by default (percentile >= 1 or unset), or an outlier-
// tolerant percentile when explicitly configured. Max-based calibration is
// O(n); the percentile path runs an in-place quickselect on a pooled
// buffer — expected O(n) and allocation-free, where it used to copy and
// fully sort the distribution on every readout-scale calibration.
func calibScale(data []float64, percentile float64) float64 {
	if percentile <= 0 || percentile >= 1 {
		if m := quant.MaxAbs(data); m > 0 {
			return m
		}
		return 1
	}
	abs := getFloats(len(data))
	defer putFloats(abs)
	for i, v := range data {
		if v < 0 {
			v = -v
		}
		abs[i] = v
	}
	idx := int(percentile*float64(len(abs))) - 1
	if idx < 0 {
		idx = 0
	}
	v := quickselect(abs, idx)
	if v <= 0 {
		return 1
	}
	return v
}
