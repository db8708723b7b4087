// Device health: the per-device state machine (live → quarantined →
// probed → readmitted), the EWMA latency score the scheduler ranks devices
// by, and the background canary probe loop.
//
// State transitions:
//
//	live ──(QuarantineThreshold consecutive shard faults)──▶ quarantined
//	quarantined ──(background canary probe succeeds)──▶ live (readmitted)
//
// Quarantined devices leave the scheduling rotation immediately; a device
// is only quarantined after its in-flight shard has completed (faults are
// observed at shard completion), and the probe additionally takes the
// device's run lock, so readmission always happens on a drained device. A
// probe aligns the device to the pool's current call frontier and replays a
// cached canary sample; a permanently dead device (outage fault) keeps
// failing its probes and never flaps back in.
package pool

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

// ewmaAlpha weights the newest attempt latency in the health score.
const ewmaAlpha = 0.2

// Ladder is one device's health state, which the scheduler scores and the
// quarantine ladder moves. It reads no clock: the pool passes wall-clock ns
// and the fleet simulator's workers, which hold the same type, pass virtual
// ns. The zero value is a live, unmeasured device.
type Ladder struct {
	// EWMANs is the exponentially weighted attempt latency in ns (the first
	// attempt seeds it), ConsecFaults the current run of faulted attempts,
	// and Quarantined marks a device out of rotation.
	EWMANs       float64
	ConsecFaults int
	Quarantined  bool
}

// Observe folds one completed attempt: its latency into the EWMA, and its
// outcome into the fault run. A fault run reaching threshold quarantines a
// live device; Observe reports whether this attempt did so.
func (l *Ladder) Observe(elapsedNs int64, ok bool, threshold int) bool {
	ns := float64(elapsedNs)
	if l.EWMANs == 0 {
		l.EWMANs = ns
	} else {
		l.EWMANs += ewmaAlpha * (ns - l.EWMANs)
	}
	if ok {
		l.ConsecFaults = 0
		return false
	}
	l.ConsecFaults++
	if l.Quarantined || l.ConsecFaults < threshold {
		return false
	}
	l.Quarantined = true
	return true
}

// Readmit returns a quarantined device to rotation with a clean fault run
// (a successful probe). It reports whether the device was quarantined.
func (l *Ladder) Readmit() bool {
	if !l.Quarantined {
		return false
	}
	l.Quarantined = false
	l.ConsecFaults = 0
	return true
}

// Score is the device's scheduling rank (see HealthScore).
func (l Ladder) Score() float64 { return HealthScore(l.EWMANs, l.ConsecFaults) }

// device is one pool slot: a registry-opened engine with its compiled plan
// and health accounting.
type device struct {
	id   int
	spec string
	plan *nn.NetworkPlan
	// chanSteps is the plan lowered for output-channel sharding (populated
	// by New when Options.Shard is ShardChannel).
	chanSteps []nn.ChannelStep

	// run serializes counter alignment and execution on the physical
	// device; the probe loop takes it too, so readmission drains first.
	run sync.Mutex

	// Guarded by DevicePool.mu.
	health  Ladder
	busy    bool
	lastErr error

	// Monotonic counters (atomic: read by DeviceHealth without the lock).
	shards    atomic.Uint64
	samples   atomic.Uint64
	faults    atomic.Uint64
	probesN   atomic.Uint64
	readmitsN atomic.Uint64
	busyNanos atomic.Int64
}

// HealthScore is the pool's device-ranking function: lower is healthier.
// Latency EWMA scaled up by recent consecutive faults; an unmeasured device
// scores 0 and is tried first. Exported so schedulers outside the pool —
// notably the fleet simulator's health-weighted routing policy — rank by
// the exact same score the real dispatcher uses.
func HealthScore(ewmaNs float64, consecFaults int) float64 {
	return ewmaNs * float64(1+consecFaults)
}

// acquire blocks until a live, idle device outside tried can be reserved,
// preferring the healthiest score. nil means no live device outside tried
// exists (so the shard's retry loop must stop) or the pool closed.
func (p *DevicePool) acquire(tried map[*device]bool) *device {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil
		}
		var best *device
		candidates := false
		for _, d := range p.devs {
			if d.health.Quarantined || tried[d] {
				continue
			}
			candidates = true
			if d.busy {
				continue
			}
			if best == nil || d.health.Score() < best.health.Score() {
				best = d
			}
		}
		if best != nil {
			best.busy = true
			return best
		}
		if !candidates {
			return nil
		}
		p.cond.Wait()
	}
}

// acquireHinted reserves hint when it is live and idle, falling back to
// the scored acquire. ForwardBatch stripes a request's shards across
// distinct devices via hints instead of reserving them up front (which
// could deadlock concurrent multi-shard requests); a hint lost to a
// concurrent request just degrades to the dynamic path.
func (p *DevicePool) acquireHinted(hint *device, tried map[*device]bool) *device {
	if hint != nil {
		p.mu.Lock()
		if !p.closed && !hint.health.Quarantined && !hint.busy && !tried[hint] {
			hint.busy = true
			p.mu.Unlock()
			return hint
		}
		p.mu.Unlock()
	}
	return p.acquire(tried)
}

// stripeOrder snapshots the live devices healthiest-first — the dispatch
// hints ForwardBatch stripes its shards across. Without striping, the
// greedy scored acquire piles consecutive shards onto whichever device's
// freshly-updated score dips lowest whenever shard executions serialize
// (a starved host, or more shards than free devices).
func (p *DevicePool) stripeOrder(nShards int) []*device {
	p.mu.Lock()
	defer p.mu.Unlock()
	var live []*device
	for _, d := range p.devs {
		if !d.health.Quarantined {
			live = append(live, d)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].health.Score() < live[j].health.Score() })
	if len(live) > nShards {
		live = live[:nShards]
	}
	return live
}

// noteShard records one completed shard attempt on d: frees the device
// and folds the attempt into its health ladder, which may quarantine it.
func (p *DevicePool) noteShard(d *device, samples int, elapsed time.Duration, err error) {
	d.shards.Add(1)
	d.busyNanos.Add(int64(elapsed))
	p.mu.Lock()
	d.busy = false
	d.lastErr = err
	if err == nil {
		d.samples.Add(uint64(samples))
	} else {
		d.faults.Add(1)
	}
	if d.health.Observe(int64(elapsed), err == nil, p.opts.QuarantineThreshold) {
		p.quarantines.Add(1)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// probeLoop periodically replays the canary sample on every quarantined
// device and readmits the ones that answer cleanly.
func (p *DevicePool) probeLoop() {
	defer close(p.probeDone)
	for {
		select {
		case <-p.stop:
			return
		case <-p.opts.after(p.opts.ProbeInterval):
			p.probeQuarantined()
		}
	}
}

func (p *DevicePool) probeQuarantined() {
	p.mu.Lock()
	canary := p.canary
	var targets []*device
	for _, d := range p.devs {
		if d.health.Quarantined {
			targets = append(targets, d)
		}
	}
	p.mu.Unlock()
	if canary == nil {
		return
	}
	for _, d := range targets {
		p.probe(d, canary)
	}
}

// probe replays the canary on a quarantined device, aligned to the pool's
// current call frontier (the probe does not advance it — the same indices
// will key the device's next real shard, and draws are pure functions of
// their keys). Taking the run lock drains any in-flight shard first.
func (p *DevicePool) probe(d *device, canary *tensor.Tensor) {
	d.run.Lock()
	d.plan.AlignEngineCalls(p.calls.Load())
	_, err := d.plan.ForwardBatch(canary)
	d.run.Unlock()
	p.probes.Add(1)
	d.probesN.Add(1)
	p.mu.Lock()
	if err != nil {
		d.lastErr = err
	} else if d.health.Readmit() {
		d.lastErr = nil
		d.readmitsN.Add(1)
		p.readmits.Add(1)
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// DeviceHealth is one pool device's point-in-time health row.
type DeviceHealth struct {
	// ID is the device's pool slot; Spec its canonical backend spec.
	ID   int
	Spec string
	// State is "live" or "quarantined".
	State string
	// EWMALatency is the exponentially-weighted shard latency the
	// scheduler scores the device by; ConsecFaults the current
	// consecutive-fault run feeding the quarantine threshold.
	EWMALatency  time.Duration
	ConsecFaults int
	// Shards/Samples/Faults count dispatched shard attempts, successfully
	// served samples, and faulted shards; Probes/Readmits the quarantine
	// machinery's activity on this device.
	Shards, Samples, Faults, Probes, Readmits uint64
	// Busy is the cumulative time the device spent executing shards — the
	// per-device occupancy the modeled pool throughput is derived from.
	Busy time.Duration
	// LastError is the most recent shard or probe error ("" when clean).
	LastError string
}

// Score is the row's scheduling rank — HealthScore over the row's EWMA
// latency and consecutive-fault run (lower is healthier).
func (h DeviceHealth) Score() float64 {
	return HealthScore(float64(h.EWMALatency), h.ConsecFaults)
}

// DeviceHealth returns one row per device, in slot order.
func (p *DevicePool) DeviceHealth() []DeviceHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	rows := make([]DeviceHealth, len(p.devs))
	for i, d := range p.devs {
		state := "live"
		if d.health.Quarantined {
			state = "quarantined"
		}
		row := DeviceHealth{
			ID:           d.id,
			Spec:         d.spec,
			State:        state,
			EWMALatency:  time.Duration(d.health.EWMANs),
			ConsecFaults: d.health.ConsecFaults,
			Shards:       d.shards.Load(),
			Samples:      d.samples.Load(),
			Faults:       d.faults.Load(),
			Probes:       d.probesN.Load(),
			Readmits:     d.readmitsN.Load(),
			Busy:         time.Duration(d.busyNanos.Load()),
		}
		if d.lastErr != nil {
			row.LastError = d.lastErr.Error()
		}
		rows[i] = row
	}
	return rows
}
