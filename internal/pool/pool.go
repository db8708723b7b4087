// Package pool shards batched inference across a farm of registry-opened
// accelerator devices while preserving the single-engine batch contract bit
// for bit. The paper's accelerator is a fleet of JTC units, not one perfect
// engine; this package is the fault-domain-aware scheduler such a fleet
// needs: per-device health scoring feeding a quarantine → background probe
// → readmit state machine (Ladder, which the fleet simulator runs too),
// retry of failed shards on other live devices, and graceful degradation of
// the effective batch ceiling as devices die. Each call is split by sample
// or, for a lone batch-1 call, by output channel.
//
// Bit-identity rests on the call-reservation keying of the compiled batch
// path (see nn/shard.go and DESIGN.md): a compiled plan consumes a fixed
// stride of engine call indices per sample, and every readout-noise and
// fault substream is keyed by (seed, call index). The pool keeps ONE
// logical call frontier; a request of n samples reserves n*stride indices,
// and the shard covering samples [a,b) aligns its device's counter to
// base + a*stride before executing. Any same-seed device therefore draws
// exactly the substreams one engine serving the whole sequence would have
// drawn, so sharding and retries are invisible in results.
package pool

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"photofourier/internal/backend"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

// Typed sentinel errors; test with errors.Is.
var (
	// ErrPoolExhausted marks a request that found zero live devices: every
	// device in the pool is quarantined. It wraps the last device error, so
	// errors.Is against core.ErrDeviceFault keeps working.
	ErrPoolExhausted = errors.New("pool: no live devices")
	// ErrPoolClosed marks a ForwardBatch call on a closed pool.
	ErrPoolClosed = errors.New("pool: closed")
	// ErrBadPool marks invalid pool options or an unusable device spec,
	// rejected once by New.
	ErrBadPool = errors.New("pool: bad configuration")
)

// Options configures a DevicePool. The zero value of every field selects
// its default; New validates once.
type Options struct {
	// Specs are the backend specs of the pool's devices, one device per
	// entry (possibly heterogeneous, each with its own fault= injector and
	// seed). Required.
	Specs []string
	// MaxShards caps the sample shards or channel ranges one ForwardBatch
	// splits into (default: pool size).
	MaxShards int
	// QuarantineThreshold is how many consecutive shard faults quarantine
	// a device (default 3).
	QuarantineThreshold int
	// ProbeInterval is the background probe cadence for quarantined
	// devices (default 50ms).
	ProbeInterval time.Duration
	// DecisionLog, when non-nil, receives the scheduling decision log: one
	// line per device/shard assignment. Writes are serialized by the pool.
	DecisionLog io.Writer

	// Test seams (package-internal): deterministic clock and timer.
	now   func() time.Time
	after func(time.Duration) <-chan time.Time
}

func (o Options) validate() error {
	if len(o.Specs) == 0 {
		return fmt.Errorf("%w: need at least one device spec", ErrBadPool)
	}
	if o.MaxShards < 0 || o.QuarantineThreshold < 0 || o.ProbeInterval < 0 {
		return fmt.Errorf("%w: negative option", ErrBadPool)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.MaxShards < 1 {
		o.MaxShards = len(o.Specs)
	}
	if o.QuarantineThreshold < 1 {
		o.QuarantineThreshold = 3
	}
	if o.ProbeInterval < 1 {
		o.ProbeInterval = 50 * time.Millisecond
	}
	if o.now == nil {
		o.now = time.Now
	}
	if o.after == nil {
		o.after = time.After
	}
	return o
}

// DevicePool is a farm of registry-opened engines, each carrying its own
// compiled plan of one shared source network, with a scheduler on top that
// splits each call by sample or by output channel. It is safe for
// concurrent ForwardBatch calls.
type DevicePool struct {
	net    *nn.Network
	opts   Options
	devs   []*device
	stride uint64 // engine call indices per sample (0: nothing keyed)
	spec   string // canonical pool spec (Open) or synthesized (New)
	// channelOK marks a pool whose devices were all lowered for channel
	// ranges by New.
	channelOK bool

	// calls is the pool's logical call frontier: the single counter a
	// lone engine serving every sample in order would have.
	calls atomic.Uint64
	// inflight counts ForwardBatch calls in progress; a call that finds
	// no other in flight may take channel ranges.
	inflight atomic.Int64

	// batchInvariant caches whether every device is noise-free (so
	// co-batching and sharding are invisible for capability queries).
	batchInvariant bool

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	// canary is a copy of the first sample ever served, reused by the
	// background probe of quarantined devices.
	canary *tensor.Tensor

	// intraMu serializes channel-range requests, which occupy their
	// devices in lockstep (sample-sharded requests run concurrently and
	// never take it).
	intraMu sync.Mutex
	// logMu serializes decision-log writes.
	logMu sync.Mutex

	stop      chan struct{}
	probeDone chan struct{}

	requests    atomic.Uint64
	shardsN     atomic.Uint64
	quarantines atomic.Uint64
	readmits    atomic.Uint64
	probes      atomic.Uint64
	exhausted   atomic.Uint64
}

// New opens one engine per spec, compiles net onto each, and starts the
// background probe loop. The pool owns the engines; callers must Close it.
func New(net *nn.Network, opts Options) (*DevicePool, error) {
	if net == nil {
		return nil, fmt.Errorf("%w: nil network", ErrBadPool)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	p := &DevicePool{
		net:            net,
		opts:           opts.withDefaults(),
		batchInvariant: true,
		stop:           make(chan struct{}),
		probeDone:      make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	for i, spec := range p.opts.Specs {
		eng, err := backend.Open(spec)
		if err != nil {
			return nil, fmt.Errorf("%w: device %d spec %q: %v", ErrBadPool, i, spec, err)
		}
		plan, err := net.Compile(eng)
		if err != nil {
			return nil, fmt.Errorf("%w: device %d spec %q: compile: %v", ErrBadPool, i, spec, err)
		}
		stride := plan.KeyedCallsPerSample()
		if stride > 0 {
			if p.stride > 0 && stride != p.stride {
				return nil, fmt.Errorf("%w: device %d spec %q: call stride %d differs from pool stride %d", ErrBadPool, i, spec, stride, p.stride)
			}
			p.stride = stride
		}
		if nn.CapabilitiesOf(plan.Engine()).Noisy {
			p.batchInvariant = false
		}
		p.devs = append(p.devs, &device{id: i, spec: eng.String(), plan: plan})
	}
	// Channel ranges split one logical engine, so they need every device on
	// one spec (the same weights, seed and operating point) and every layer
	// decomposable over output-channel ranges (nn.ChannelShardSteps: no
	// percentile ADC calibration, no shot-rate faults). A pool that fails
	// either check splits by sample only.
	p.channelOK = true
	for _, d := range p.devs {
		steps, err := d.plan.ChannelShardSteps()
		if err != nil || d.spec != p.devs[0].spec {
			p.channelOK = false
			break
		}
		d.chanSteps = steps
	}
	p.spec = synthesizeSpec(p.opts)
	go p.probeLoop()
	return p, nil
}

// channelParts is the split rule: how many output-channel ranges a call of
// n samples takes, or 0 for sample shards. Ranges are taken only by an
// eligible pool's lone batch-1 call: concurrent calls already fill the
// devices by sample, and batch-1 calls are the only ones measured to gain
// from ranges. They are capped at the CPUs, since each range is a
// goroutine and ranges past the CPU count time-share cores.
func channelParts(n, live, maxShards, procs int, alone, eligible bool) int {
	parts := min(live, maxShards, procs)
	if !eligible || !alone || parts < 2 || n != 1 {
		return 0
	}
	return parts
}

// logf emits one scheduling decision-log line (no-op without a
// DecisionLog).
func (p *DevicePool) logf(format string, args ...any) {
	if p.opts.DecisionLog == nil {
		return
	}
	p.logMu.Lock()
	fmt.Fprintf(p.opts.DecisionLog, "pool: decision "+format+"\n", args...)
	p.logMu.Unlock()
}

// Source returns the pool's shared network — the serve layer recompiles a
// failover standby from it.
func (p *DevicePool) Source() *nn.Network { return p.net }

// BatchInvariant reports whether a sample's result is independent of its
// co-batched neighbors and of sharding: true when every device is a
// noise-free substrate.
func (p *DevicePool) BatchInvariant() bool { return p.batchInvariant }

// Spec returns the pool's canonical spec string.
func (p *DevicePool) Spec() string { return p.spec }

// Size returns the total number of devices, live or quarantined.
func (p *DevicePool) Size() int { return len(p.devs) }

// Live returns how many devices are currently in rotation.
func (p *DevicePool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.liveLocked()
}

func (p *DevicePool) liveLocked() int {
	n := 0
	for _, d := range p.devs {
		if !d.health.Quarantined {
			n++
		}
	}
	return n
}

// EffectiveBatch scales a configured batch ceiling by the live fraction of
// the pool (never below 1) — the graceful-degradation contract: a shrunken
// pool serves smaller batches instead of queueing the same load onto fewer
// devices. The serve layer consults this for its micro-batch ceiling.
func (p *DevicePool) EffectiveBatch(configured int) int {
	if configured < 1 {
		return 1
	}
	eb := configured * p.Live() / len(p.devs)
	if eb < 1 {
		eb = 1
	}
	return eb
}

// Counters is a point-in-time snapshot of the pool's scheduling counters.
type Counters struct {
	// Requests counts ForwardBatch calls; Shards counts logical shards
	// dispatched (retries are visible in device rows).
	Requests, Shards uint64
	// Hedges is always 0: the pool does not hedge shards. It stays only
	// because perfbench's pool.hedges metric reads it.
	Hedges uint64
	// Quarantines / Readmits / Probes count the device state machine's
	// transitions and background canary probes.
	Quarantines, Readmits, Probes uint64
	// Exhausted counts requests refused because zero devices were live.
	Exhausted uint64
}

// Counters returns the pool's scheduling counters.
func (p *DevicePool) Counters() Counters {
	return Counters{
		Requests:    p.requests.Load(),
		Shards:      p.shardsN.Load(),
		Quarantines: p.quarantines.Load(),
		Readmits:    p.readmits.Load(),
		Probes:      p.probes.Load(),
		Exhausted:   p.exhausted.Load(),
	}
}

// Close stops the probe loop and refuses further ForwardBatch calls.
// In-flight requests must drain before Close (the serve layer's Close does
// this); probes in flight finish.
func (p *DevicePool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	close(p.stop)
	<-p.probeDone
}

func (p *DevicePool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// ForwardBatch runs one NCHW batch with the single-engine per-sample batch
// contract: results are bit-identical to one engine of the devices' spec
// serving every request in order, including keyed readout noise — the
// split, device choice, and retries are all invisible in the output.
// Each call picks its split (channelParts): output-channel ranges for a
// lone batch-1 call, sample shards otherwise.
// Sample shards fail over across live devices; the request errors only
// when a shard has exhausted every live device (ErrPoolExhausted when none
// remain at all). A channel-range call fails as a whole on a device fault.
func (p *DevicePool) ForwardBatch(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x == nil || x.Rank() != 4 {
		return nil, fmt.Errorf("pool: %w: ForwardBatch wants NCHW input", nn.ErrShapeMismatch)
	}
	n := x.Shape[0]
	if n < 1 {
		return nil, fmt.Errorf("pool: %w: empty batch", nn.ErrShapeMismatch)
	}
	if p.isClosed() {
		return nil, ErrPoolClosed
	}
	alone := p.inflight.Add(1) == 1
	defer p.inflight.Add(-1)
	req := p.requests.Add(1)
	p.ensureCanary(x)
	// Reserve the request's call block on the logical frontier exactly as
	// the single-engine ForwardBatch would have.
	base := p.calls.Add(uint64(n)*p.stride) - uint64(n)*p.stride
	live := p.Live()
	if live == 0 {
		p.exhausted.Add(1)
		return nil, p.exhaustedErr(nil)
	}
	if parts := channelParts(n, live, p.opts.MaxShards, runtime.GOMAXPROCS(0), alone, p.channelOK); parts > 0 {
		return p.forwardChannel(x, base, req, parts)
	}
	shards := min(live, n, p.opts.MaxShards)
	order := p.stripeOrder(shards)
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	perSample := c * h * w
	type shardOut struct {
		lo  int
		out *tensor.Tensor
		err error
	}
	results := make([]shardOut, shards)
	var wg sync.WaitGroup
	per, rem, lo := n/shards, n%shards, 0
	for i := 0; i < shards; i++ {
		m := per
		if i < rem {
			m++
		}
		hi := lo + m
		view := &tensor.Tensor{Shape: []int{m, c, h, w}, Data: x.Data[lo*perSample : hi*perSample]}
		var hint *device
		if i < len(order) {
			hint = order[i]
		}
		wg.Add(1)
		go func(i, lo int, view *tensor.Tensor, hint *device) {
			defer wg.Done()
			out, err := p.runShard(req, base, lo, view, hint)
			results[i] = shardOut{lo: lo, out: out, err: err}
		}(i, lo, view, hint)
		lo = hi
	}
	wg.Wait()
	p.shardsN.Add(uint64(shards))
	var out *tensor.Tensor
	rowLen := 0
	for _, r := range results {
		if r.err != nil {
			if errors.Is(r.err, ErrPoolExhausted) {
				p.exhausted.Add(1)
			}
			return nil, r.err
		}
		if out == nil {
			shape := append([]int{n}, r.out.Shape[1:]...)
			out = tensor.New(shape...)
			rowLen = r.out.Size() / r.out.Shape[0]
		}
		copy(out.Data[r.lo*rowLen:], r.out.Data)
	}
	return out, nil
}

// ensureCanary keeps a copy of the first sample served, for probing.
func (p *DevicePool) ensureCanary(x *tensor.Tensor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.canary != nil {
		return
	}
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	p.canary = tensor.New(1, c, h, w)
	copy(p.canary.Data, x.Data[:c*h*w])
}

func (p *DevicePool) exhaustedErr(last error) error {
	if last == nil {
		p.mu.Lock()
		for _, d := range p.devs {
			if d.lastErr != nil {
				last = d.lastErr
			}
		}
		p.mu.Unlock()
	}
	if last != nil {
		return fmt.Errorf("%w (last device error: %w)", ErrPoolExhausted, last)
	}
	return ErrPoolExhausted
}

// runShard executes samples [lo, lo+m) of the request's call block,
// retrying across live devices (each at most once). The first attempt
// honors the dispatch-time stripe hint; retries fall back to the scored
// acquire.
func (p *DevicePool) runShard(req, base uint64, lo int, view *tensor.Tensor, hint *device) (*tensor.Tensor, error) {
	tried := make(map[*device]bool)
	var lastErr error
	for {
		d := p.acquireHinted(hint, tried)
		hint = nil
		if d == nil {
			break
		}
		tried[d] = true
		out, err := p.execOn(req, d, base, lo, view)
		if err == nil {
			return out, nil
		}
		lastErr = err
	}
	if p.isClosed() {
		return nil, ErrPoolClosed
	}
	if p.Live() == 0 {
		return nil, p.exhaustedErr(lastErr)
	}
	return nil, fmt.Errorf("pool: shard failed on every live device: %w", lastErr)
}

// execOn aligns d's engine counter to the shard's call block and runs it.
// The device lock serializes alignment and execution — one shard occupies
// one physical device at a time, which is what makes alignment sound.
func (p *DevicePool) execOn(req uint64, d *device, base uint64, lo int, view *tensor.Tensor) (*tensor.Tensor, error) {
	p.logf("req=%d mode=sample dev=%d base=%d samples=[%d,%d)", req, d.id, base, lo, lo+view.Shape[0])
	d.run.Lock()
	start := p.opts.now()
	d.plan.AlignEngineCalls(base + uint64(lo)*p.stride)
	out, err := d.plan.ForwardBatch(view)
	elapsed := p.opts.now().Sub(start)
	d.run.Unlock()
	p.noteShard(d, view.Shape[0], elapsed, err)
	return out, err
}
