// Intra-sample execution: output-channel sharding. Sample sharding
// (pool.go) scales batch throughput with pool size but leaves batch-1
// latency at one device's serial time; channel sharding spends the pool on
// a SINGLE inference.
//
// Channel sharding splits every engine layer's output channels across the
// live devices and merges partial activations. Bit-identity to
// single-engine execution holds because the per-(call, term, group)
// readout-substream keys are position-derived (the same first/stride
// values ForwardBatchCalls would use key every range) and the ADC full
// scales are re-combined from every range's raw maxima before readout
// (nn.CombineRangeScales) — see DESIGN.md for the alignment proof.
package pool

import (
	"fmt"
	"sync"
	"time"

	"photofourier/internal/arch"
	"photofourier/internal/nets"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

// splitChannels splits cout output channels into at most parts contiguous
// near-even ranges (the channel-shard work assignment).
func splitChannels(cout, parts int) [][2]int {
	if parts > cout {
		parts = cout
	}
	if parts < 1 {
		parts = 1
	}
	out := make([][2]int, 0, parts)
	lo := 0
	for d := 0; d < parts; d++ {
		hi := lo + (cout-lo)/(parts-d)
		if hi > lo {
			out = append(out, [2]int{lo, hi})
		}
		lo = hi
	}
	return out
}

// StepCosts prices every plan step with the arch performance model
// (arch.EvalLayer modeled seconds for engine convolutions, zero for every
// other step): the modeled column a per-step profile sets beside measured
// time (perfbench's arch_ns). When the arch model cannot price a
// convolution the costs fall back to MAC counts for every conv, so the
// costs of different steps stay comparable.
func StepCosts(metas []nn.StepMeta) []float64 {
	cfg := arch.PhotoFourierCG()
	costs := make([]float64, len(metas))
	archOK := true
	for i, m := range metas {
		if m.Conv == nil {
			continue
		}
		lp, err := arch.EvalLayer(cfg, nets.Layer{
			Name: m.Name, Kind: nets.Conv,
			Cin: m.Conv.Cin, Cout: m.Conv.Cout,
			H: m.Conv.H, W: m.Conv.W, K: m.Conv.K,
			Stride: m.Conv.Stride, Pad: m.Conv.Pad,
		})
		if err != nil {
			archOK = false
			break
		}
		costs[i] = lp.TimeS
	}
	if !archOK {
		for i := range costs {
			costs[i] = 0
		}
		for i, m := range metas {
			if m.Conv != nil {
				oh, ow := tensor.ConvOut(m.Conv.H, m.Conv.K, 1, pad2(m.Conv)), tensor.ConvOut(m.Conv.W, m.Conv.K, 1, pad2(m.Conv))
				costs[i] = float64(m.Conv.Cin) * float64(m.Conv.Cout) * float64(oh*ow) * float64(m.Conv.K*m.Conv.K)
			}
		}
	}
	return costs
}

func pad2(c *nn.ConvGeom) int {
	if c.Pad == tensor.Same {
		return c.K - 1
	}
	return 0
}

// liveDevices snapshots the live devices in slot order, capped at the
// request shard ceiling.
func (p *DevicePool) liveDevices() []*device {
	p.mu.Lock()
	defer p.mu.Unlock()
	var live []*device
	for _, d := range p.devs {
		if !d.health.Quarantined {
			live = append(live, d)
		}
	}
	if len(live) > p.opts.MaxShards {
		live = live[:p.opts.MaxShards]
	}
	return live
}

// forwardChannel serves one request with every live device cooperating on
// every layer: engine convolutions split by output-channel range
// (two-phase: sweep+maxima on all devices, combine scales, then readout),
// CPU steps run once on the host. Requests are serialized (intraMu) — the
// strategy occupies the whole pool by design.
func (p *DevicePool) forwardChannel(x *tensor.Tensor, base, req uint64) (*tensor.Tensor, error) {
	p.intraMu.Lock()
	defer p.intraMu.Unlock()
	devs := p.liveDevices()
	if len(devs) == 0 {
		p.exhausted.Add(1)
		return nil, p.exhaustedErr(nil)
	}
	// The whole request holds every device's run lock: the two phases of
	// each layer must execute in lockstep, and probes only touch
	// quarantined devices (which are not in devs).
	for _, d := range devs {
		d.run.Lock()
	}
	defer func() {
		for _, d := range devs {
			d.run.Unlock()
		}
	}()
	n := x.Shape[0]
	active := make([]time.Duration, len(devs))
	devErr := make([]error, len(devs))
	out, err := p.runChannelSteps(x, base, req, devs, active, devErr)
	p.shardsN.Add(uint64(len(devs)))
	for i, d := range devs {
		p.noteShard(d, n, active[i], devErr[i])
	}
	return out, err
}

func (p *DevicePool) runChannelSteps(x *tensor.Tensor, base, req uint64, devs []*device, active []time.Duration, devErr []error) (*tensor.Tensor, error) {
	n := x.Shape[0]
	cur := x
	putCur := func() {
		if cur != x {
			tensor.PutScratch(cur)
		}
	}
	keyed := uint64(0)
	for j := range devs[0].chanSteps {
		step := devs[0].chanSteps[j]
		if step.Range == nil {
			t0 := p.opts.now()
			out, err := step.Run(cur)
			active[0] += p.opts.now().Sub(t0)
			if err != nil {
				putCur()
				return nil, fmt.Errorf("pool: channel-shard step %s: %w", step.Name, err)
			}
			putCur()
			cur = out
			continue
		}
		cout := step.Range.OutChannels()
		ranges := splitChannels(cout, len(devs))
		first := base + keyed + 1
		keyed++
		runs := make([]nn.ChannelRangeRun, len(ranges))
		errs := make([]error, len(ranges))
		var wg sync.WaitGroup
		for i := range ranges {
			p.logf("req=%d mode=channel step=%s first=%d dev=%d oc=[%d,%d)",
				req, step.Name, first, devs[i].id, ranges[i][0], ranges[i][1])
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t0 := p.opts.now()
				runs[i], errs[i] = devs[i].chanSteps[j].Range.BeginBatchRange(cur, ranges[i][0], ranges[i][1], first, p.stride)
				active[i] += p.opts.now().Sub(t0)
			}(i)
		}
		wg.Wait()
		fail := func() error {
			var firstErr error
			for i, e := range errs {
				if e != nil {
					devErr[i] = e
					if firstErr == nil {
						firstErr = e
					}
				}
				if runs[i] != nil {
					runs[i].Release()
				}
			}
			putCur()
			return fmt.Errorf("pool: channel-shard step %s: %w", step.Name, firstErr)
		}
		for _, e := range errs {
			if e != nil {
				return nil, fail()
			}
		}
		maxima := make([]nn.RangeMaxima, len(ranges))
		for i := range runs {
			maxima[i] = runs[i].Maxima()
		}
		scales, err := nn.CombineRangeScales(maxima)
		if err != nil {
			for _, r := range runs {
				r.Release()
			}
			putCur()
			return nil, fmt.Errorf("pool: channel-shard step %s: %w", step.Name, err)
		}
		parts := make([]*tensor.Tensor, len(ranges))
		for i := range ranges {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t0 := p.opts.now()
				parts[i], errs[i] = runs[i].Finish(scales)
				active[i] += p.opts.now().Sub(t0)
			}(i)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				for _, part := range parts {
					if part != nil {
						tensor.PutScratch(part)
					}
				}
				return nil, fail()
			}
		}
		oh, ow := parts[0].Shape[2], parts[0].Shape[3]
		plane := oh * ow
		merged := tensor.GetScratch(n, cout, oh, ow)
		for i, sp := range ranges {
			rc := sp[1] - sp[0]
			for b := 0; b < n; b++ {
				copy(merged.Data[(b*cout+sp[0])*plane:(b*cout+sp[1])*plane],
					parts[i].Data[b*rc*plane:(b+1)*rc*plane])
			}
			tensor.PutScratch(parts[i])
		}
		putCur()
		cur = merged
	}
	// Results leave the scratch pool: sample-shard ForwardBatch returns a
	// plain tensor and callers never recycle it.
	out := tensor.New(cur.Shape...)
	copy(out.Data, cur.Data)
	putCur()
	return out, nil
}
