// Package sim is a deterministic, seedable discrete-time fleet simulator
// for the serving stack: synthetic tenants generate request arrivals,
// pluggable admission/batching/routing policies decide what happens to each
// request, and a pool of modeled workers (mirroring internal/pool's device
// health state machine) executes micro-batches under fault injection from
// the internal/fault spec grammar. Every queueing/admission/routing idea
// becomes a measurable experiment: the recorder emits per-time-bucket
// latency percentiles, queue depth, shed rate, shots/s, and aperture
// utilization as JSONL, plus a run summary with an SLO verdict — the same
// way the PhotoFourier paper turns aperture/shot decisions into a perf
// model.
//
// Time is virtual: an event loop over int64 nanoseconds with a seeded
// math/rand/v2 PCG per agent, no wall clock anywhere. The same seed and
// scenario therefore produce byte-identical JSONL output on every run
// (asserted by TestRunReproducible) — simulation results are artifacts, not
// samples.
//
// The cost model is intentionally simple: a batch of n samples occupies
// its worker for BatchBase + n*PerSample virtual nanoseconds
// (weight-latched economics: fixed latch/readout overhead plus a
// per-sample streaming cost), fires n*ShotsPerSample modeled JTC shots,
// and fills ApertureUtil of the aperture while executing. The default
// costs are hand-set; CalibrateWorkers derives them from measured BENCH
// snapshots instead. Worker faults come from fault.Parse specs:
// outage:CALL kills the device at its CALL-th batch, shot:RATE injects
// transient per-batch misfires; consecutive faults quarantine the worker
// (its queue re-routes), probes readmit it when the fault clears. Each
// worker holds a pool.Ladder, so the simulator runs the device pool's own
// live → quarantined → probed → readmitted ladder, in virtual time.
package sim

import (
	"container/heap"
	"io"
)

// Request is one simulated inference arrival.
type Request struct {
	// ID is the global arrival sequence number (0-based).
	ID int64
	// Tenant names the agent that produced the arrival.
	Tenant string
	// At is the arrival time in virtual nanoseconds.
	At int64
	// Attempts counts failed batch executions this request rode through
	// before the current dispatch (re-routing budget, see MaxAttempts).
	Attempts int
}

// event is one scheduled simulator action. seq breaks same-instant ties in
// scheduling order, which keeps the loop fully deterministic.
type event struct {
	at  int64
	seq uint64
	fn  func(now int64)
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// simulator is one run's mutable state. It is rebuilt from the scenario on
// every Run, so a Scenario value can be reused freely.
type simulator struct {
	sc      Scenario
	horizon int64 // Duration in ns; arrivals and probes stop here
	rec     *recorder

	admission Admission
	batching  Batching
	routing   Routing

	heap    eventHeap
	seq     uint64
	workers []*worker
	nextID  int64
}

// Run executes one scenario and streams the per-bucket JSONL metrics plus a
// final summary line to jsonl (nil discards them). Same seed + scenario ⇒
// byte-identical output.
func Run(sc Scenario, jsonl io.Writer) (Summary, error) {
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return Summary{}, err
	}
	adm, err := BuildAdmission(sc.Admission)
	if err != nil {
		return Summary{}, err
	}
	bat, err := BuildBatching(sc.Batching)
	if err != nil {
		return Summary{}, err
	}
	rt, err := BuildRouting(sc.Routing)
	if err != nil {
		return Summary{}, err
	}
	s := &simulator{
		sc:        sc,
		horizon:   sc.Duration.Nanoseconds(),
		rec:       newRecorder(sc.Bucket.Nanoseconds(), len(sc.Workers)),
		admission: adm,
		batching:  bat,
		routing:   rt,
	}
	for i, wc := range sc.Workers {
		w, err := newWorker(i, wc, sc)
		if err != nil {
			return Summary{}, err
		}
		s.workers = append(s.workers, w)
	}
	agents, err := buildAgents(sc)
	if err != nil {
		return Summary{}, err
	}
	for _, a := range agents {
		s.scheduleArrival(a, 0)
	}
	if b := sc.Bucket.Nanoseconds(); b > 0 {
		s.schedule(b-1, s.sampleQueues)
	}

	for len(s.heap) > 0 {
		e := heap.Pop(&s.heap).(event)
		e.fn(e.at)
	}

	sum := s.rec.summary(sc, jsonl)
	return sum, s.rec.err
}

// schedule queues fn at time at (monotonicity is the caller's business; the
// heap orders everything).
func (s *simulator) schedule(at int64, fn func(now int64)) {
	s.seq++
	heap.Push(&s.heap, event{at: at, seq: s.seq, fn: fn})
}

// scheduleArrival asks agent a for its next arrival after now and queues it,
// unless the agent is exhausted or the arrival falls past the horizon.
func (s *simulator) scheduleArrival(a Agent, now int64) {
	at, ok := a.Next(now)
	if !ok || at >= s.horizon {
		return
	}
	if at <= now {
		at = now + 1
	}
	s.schedule(at, func(t int64) { s.arrive(a, t) })
}

// arrive runs one arrival through admission and routing, then schedules the
// agent's next arrival.
func (s *simulator) arrive(a Agent, now int64) {
	s.rec.arrival(now)
	req := &Request{ID: s.nextID, Tenant: a.Name(), At: now}
	s.nextID++
	if !s.admission.Admit(now, s.totalQueued()) {
		s.rec.shed(now)
	} else {
		s.rec.admitted(now)
		s.dispatch(now, req)
	}
	s.scheduleArrival(a, now)
}

// dispatch routes one admitted request onto a live worker's queue. A request
// no live worker can take is dropped (counted separately from admission
// shedding).
func (s *simulator) dispatch(now int64, req *Request) {
	wi := s.routing.Route(req, s.views())
	if wi < 0 || wi >= len(s.workers) || !s.workers[wi].live() {
		s.rec.dropped(now)
		return
	}
	s.enqueue(now, s.workers[wi], req)
}

// totalQueued is the admission policy's system-load signal: queued plus
// in-flight samples across the fleet.
func (s *simulator) totalQueued() int {
	n := 0
	for _, w := range s.workers {
		n += len(w.queue) + w.inflight
	}
	return n
}

// views snapshots the fleet for the routing policy.
func (s *simulator) views() []WorkerView {
	v := make([]WorkerView, len(s.workers))
	for i, w := range s.workers {
		v[i] = WorkerView{
			ID:           w.id,
			Live:         w.live(),
			Queued:       len(w.queue),
			Inflight:     w.inflight,
			EWMANs:       w.health.EWMANs,
			ConsecFaults: w.health.ConsecFaults,
		}
	}
	return v
}

// liveQuarantined counts the fleet's current states.
func (s *simulator) liveQuarantined() (live, quar int) {
	for _, w := range s.workers {
		if w.live() {
			live++
		} else {
			quar++
		}
	}
	return live, quar
}

// sampleQueues records the fleet's queue depth and worker states at the end
// of each bucket, then re-arms itself until the horizon.
func (s *simulator) sampleQueues(now int64) {
	live, quar := s.liveQuarantined()
	s.rec.sample(now, s.totalQueued(), live, quar)
	next := now + s.rec.bucketNs
	if next < s.horizon {
		s.schedule(next, s.sampleQueues)
	}
}
