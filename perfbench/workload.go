package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"photofourier/internal/backend"
	"photofourier/internal/nn"
	"photofourier/internal/pool"
	"photofourier/internal/serve"
	"photofourier/internal/tensor"
)

// weightSeed seeds every workload's network weights. The --seed flag only
// drives inputs and the arrival schedule, so every run serves one model.
const weightSeed = 7

// workload is one traffic mix. The reasons for each choice, and the layers
// each one predicts no change for, are recorded in BENCHMARK.json.
type workload struct {
	name string
	// net builds the served network from a weight seed.
	net func(seed int64) *nn.Network
	// spec is the backend spec (plan path) or pool spec (serve through a
	// device pool). Every spec pins its engines' workers=.
	spec string
	// refSpec is the fault-free single engine every output row must equal
	// bit for bit, each input run alone.
	refSpec string
	// rate is the open-loop arrival rate in requests/s through a
	// serve.Session; 0 selects a closed loop over NetworkPlan.ForwardBatch.
	rate float64
	// batch is the closed loop's batch size.
	batch int
	// inputs is how many distinct N(0,1) samples the run draws from.
	inputs int
	// procs caps GOMAXPROCS for the whole run, set-up processes included;
	// 0 keeps Go's default.
	procs int
}

var workloads = []workload{
	{
		name:    "serve-direct",
		net:     smallCNN,
		spec:    "accelerator?workers=1",
		refSpec: "accelerator?workers=1",
		rate:    200,
		inputs:  256,
	},
	{
		name:    "pool-tiled",
		net:     smallCNN,
		spec:    "pool?devices=accelerator?tiled=true,workers=1,fault=shot:0.01*2",
		refSpec: "accelerator?tiled=true,workers=1",
		batch:   8,
		inputs:  256,
		procs:   1,
	},
	{
		name:    "offline-tiled",
		net:     alexNetS,
		spec:    "accelerator?tiled=true,workers=2",
		refSpec: "accelerator?tiled=true,workers=1",
		batch:   32,
		inputs:  64,
		procs:   1,
	},
}

// pinProcs applies the workload's GOMAXPROCS cap. The closed loops keep
// every goroutine they start (both pool devices, core's two intra-op
// workers, the CPU steps' per-sample fan-out) but run one at a time, so a
// run occupies one vCPU of a shared host and a call never waits for the
// slower of two vCPUs.
func (w workload) pinProcs() {
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
}

// maxBatch is the serving session's micro-batch ceiling.
const maxBatch = 8

func smallCNN(seed int64) *nn.Network { return nn.SmallCNN([2]int{8, 16}, 10, seed) }
func alexNetS(seed int64) *nn.Network { return nn.AlexNetS(10, seed) }

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func (w workload) openLoop() bool { return w.rate > 0 }

func (w workload) pooled() bool { return pool.IsPoolSpec(w.spec) }

// deviceSpec is the single-engine spec one device of the workload runs.
func (w workload) deviceSpec() (string, error) {
	if !w.pooled() {
		return w.spec, nil
	}
	o, err := pool.ParseSpec(w.spec)
	if err != nil {
		return "", err
	}
	return o.Specs[0], nil
}

// sampleShape is the CHW geometry of every input.
var sampleShape = []int{3, 32, 32}

// makeInputs draws n N(0,1) samples from the seed.
func makeInputs(seed int64, n int) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.New(sampleShape...)
		xs[i].RandN(rng, 1)
	}
	return xs
}

// arrival is one open-loop request: when it is due, relative to the start
// of the schedule, and which input it sends.
type arrival struct {
	due   time.Duration
	input int
}

// makeSchedule places round(rate*d) Poisson arrivals in [0, d). A Poisson
// process conditioned on its count spreads the arrivals as sorted uniform
// points, so every seed offers the same load while gaps stay exponential.
func makeSchedule(seed int64, rate float64, d time.Duration, inputs int) []arrival {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	n := max(1, int(math.Round(rate*d.Seconds())))
	sched := make([]arrival, n)
	for i := range sched {
		sched[i] = arrival{due: time.Duration(rng.Int63n(int64(d))), input: rng.Intn(inputs)}
	}
	sort.Slice(sched, func(a, b int) bool { return sched[a].due < sched[b].due })
	return sched
}

// makeBatches draws the closed loop's batch compositions from the seed.
func makeBatches(seed int64, count, batch, inputs int) [][]int {
	rng := rand.New(rand.NewSource(seed*7919 + 2))
	out := make([][]int, count)
	for i := range out {
		out[i] = rng.Perm(inputs)[:batch]
	}
	return out
}

// stack copies the chosen samples into one batch of the given per-sample
// shape.
func stack(parts []*tensor.Tensor, idx []int, sample []int) *tensor.Tensor {
	per := parts[0].Size()
	x := tensor.New(append([]int{len(idx)}, sample...)...)
	for i, j := range idx {
		copy(x.Data[i*per:(i+1)*per], parts[j].Data)
	}
	return x
}

// system is one opened workload: a compiled plan or a device pool, and on
// the open loop the serving session over it.
type system struct {
	session *serve.Session
	pool    *pool.DevicePool
	plan    *nn.NetworkPlan
	// forward runs batches: the plan or the pool, through exec when traced.
	forward serve.Executor
	// exec is the timing wrapper around the plan or pool; nil when the
	// system runs untraced.
	exec *tracedExec
}

// openSystem opens the workload's backend or pool and compiles net onto it.
// With traced set, batches run through a tracedExec.
func openSystem(w workload, net *nn.Network, traced bool) (*system, error) {
	s := &system{}
	switch {
	case w.pooled():
		p, err := pool.Open(net, w.spec)
		if err != nil {
			return nil, err
		}
		s.pool, s.forward = p, p
	default:
		eng, err := backend.Open(w.spec)
		if err != nil {
			return nil, err
		}
		plan, err := net.Compile(eng)
		if err != nil {
			return nil, err
		}
		s.plan, s.forward = plan, plan
	}
	if traced {
		// The session derives batch invariance from a bare plan's engine.
		var invariant bool
		if s.pool != nil {
			invariant = s.pool.BatchInvariant()
		} else {
			invariant = !nn.CapabilitiesOf(s.plan.Engine()).Noisy
		}
		s.exec = newTracedExec(s.forward, s.pool, net, invariant)
		s.forward = s.exec
	}
	if !w.openLoop() {
		return s, nil
	}
	opts := serve.Options{MaxBatch: maxBatch}
	var err error
	if s.pool == nil && !traced {
		s.session, err = serve.New(s.plan, opts)
	} else {
		s.session, err = serve.NewExecutor(s.forward, opts)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *system) close() {
	if s.session != nil {
		s.session.Close()
	}
	if s.pool != nil {
		s.pool.Close()
	}
}

// first runs one batch-1 request, the end of set-up.
func (s *system) first(x *tensor.Tensor) error {
	if s.session != nil {
		_, err := s.session.Infer(context.Background(), x)
		return err
	}
	b, err := x.Reshape(append([]int{1}, sampleShape...)...)
	if err != nil {
		return err
	}
	_, err = s.forward.ForwardBatch(b)
	return err
}

// warmUp fills lazy per-geometry caches with a fixed count of requests: on
// the open loop, bursts of 1..maxBatch concurrent requests so every batch
// shape the session can form has run; on the closed loop, two full batches.
func (s *system) warmUp(w workload, xs []*tensor.Tensor) error {
	if !w.openLoop() {
		for i := 0; i < 2; i++ {
			if _, err := s.forward.ForwardBatch(stack(xs, seq(i, w.batch, len(xs)), sampleShape)); err != nil {
				return err
			}
		}
		return nil
	}
	for k := 1; k <= maxBatch; k++ {
		var wg sync.WaitGroup
		errs := make([]error, k)
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = s.session.Infer(context.Background(), xs[(k+i)%len(xs)])
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func seq(start, n, mod int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (start + i) % mod
	}
	return out
}

// record is one timed operation: a served request (open loop) or one
// sample row of a batch call (closed loop). Times are offsets from the
// start of the timed phase.
type record struct {
	input             int
	due, called, done time.Duration
	logits            []float64
	err               error
}

// phase is the outcome of one timed phase.
type phase struct {
	start time.Time
	recs  []record
	// calls are the closed loop's ForwardBatch calls.
	calls []execSpan
	// wall is the phase's duration: start to the last completion.
	wall time.Duration
	// backlog counts requests still outstanding a grace period after the
	// last one was due.
	backlog int64
	// shots is the jtc shot-counter growth over the phase.
	shots int64
	// layers holds the traced phase's per-layer measurements.
	layers *layers
}

// backlogGrace is how long after the last due time the queue must be
// empty; a healthy session drains within a few batch times.
const backlogGrace = 250 * time.Millisecond

// runOpenLoop sends the schedule regardless of replies, each request on
// its own goroutine, and times each from its due time.
func runOpenLoop(sess *serve.Session, xs []*tensor.Tensor, sched []arrival, start time.Time) *phase {
	ph := &phase{start: start, recs: make([]record, len(sched))}
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	ctx := context.Background()
	for i, a := range sched {
		if d := a.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		outstanding.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &ph.recs[i]
			r.input, r.due = a.input, a.due
			r.called = time.Since(start)
			pred, err := sess.Infer(ctx, xs[a.input])
			r.done = time.Since(start)
			outstanding.Add(-1)
			if err != nil {
				r.err = err
				return
			}
			r.logits = pred.Logits
		}()
	}
	if d := sched[len(sched)-1].due + backlogGrace - time.Since(start); d > 0 {
		time.Sleep(d)
	}
	ph.backlog = outstanding.Load()
	wg.Wait()
	for _, r := range ph.recs {
		ph.wall = max(ph.wall, r.done)
	}
	return ph
}

// runClosedLoop calls ForwardBatch back to back until d has passed.
func runClosedLoop(fwd serve.Executor, xs []*tensor.Tensor, batches [][]int, d time.Duration, start time.Time) *phase {
	ph := &phase{start: start}
	for i := 0; time.Since(start) < d; i++ {
		idx := batches[i%len(batches)]
		x := stack(xs, idx, sampleShape)
		t0 := time.Since(start)
		out, err := fwd.ForwardBatch(x)
		t1 := time.Since(start)
		ph.calls = append(ph.calls, execSpan{start: t0, end: t1, samples: len(idx)})
		for j, in := range idx {
			r := record{input: in, due: t0, called: t0, done: t1, err: err}
			if err == nil {
				classes := out.Shape[1]
				r.logits = out.Data[j*classes : (j+1)*classes]
			}
			ph.recs = append(ph.recs, r)
		}
	}
	ph.wall = time.Since(start)
	return ph
}

// completed counts the operations that returned a result.
func (ph *phase) completed() int {
	n := 0
	for _, r := range ph.recs {
		if r.err == nil {
			n++
		}
	}
	return n
}

// latency returns the p-quantile in ms of every completed request's time
// from due to reply; on the closed loop, of every batch call's duration.
func (ph *phase) latency(p float64) float64 {
	var out []float64
	if ph.calls != nil {
		for _, c := range ph.calls {
			out = append(out, ms(c.end-c.start))
		}
		return percentile(out, p)
	}
	for _, r := range ph.recs {
		if r.err == nil {
			out = append(out, ms(r.done-r.due))
		}
	}
	return percentile(out, p)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
