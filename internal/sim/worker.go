// Workers: the serving side of the simulator. A worker mirrors one pool
// device — a FIFO queue feeding micro-batch executions with a deterministic
// cost model, plus the pool's own health ladder (pool.Ladder: live →
// quarantined → probed → readmitted) driven in virtual time by an
// internal/fault injector: outage:CALL kills the device at its CALL-th
// batch, shot:RATE injects transient per-batch misfires. Faulted batches
// re-route their requests through the scenario's routing policy; a
// quarantined worker drains its queue the same way.
package sim

import (
	"fmt"

	"photofourier/internal/fault"
	"photofourier/internal/pool"
)

// queued is one request waiting on a worker, with its enqueue time (which
// anchors the batching policy's co-batching window; latency is always
// measured from the request's original arrival).
type queued struct {
	req *Request
	enq int64
}

type worker struct {
	id  int
	cfg WorkerConfig
	inj *fault.Injector

	queue    []queued
	busy     bool
	inflight int // samples in the executing batch

	health     pool.Ladder
	calls      uint64 // 1-based batch executions, keys fault draws
	timerSeq   uint64 // invalidates stale batch-close timers
	probeCount int
}

func newWorker(id int, cfg WorkerConfig, sc Scenario) (*worker, error) {
	seed := cfg.FaultSeed
	if seed == 0 {
		seed = sc.FaultSeed + int64(id)
	}
	inj, err := fault.Parse(cfg.Fault, seed)
	if err != nil {
		return nil, fmt.Errorf("sim: worker %d: %w", id, err)
	}
	return &worker{id: id, cfg: cfg, inj: inj}, nil
}

func (w *worker) live() bool { return !w.health.Quarantined }

// serviceNs is the cost model: a batch of n samples occupies the worker for
// BatchBase + n*PerSample virtual nanoseconds.
func (w *worker) serviceNs(n int) int64 {
	return w.cfg.BatchBase.Nanoseconds() + int64(n)*w.cfg.PerSample.Nanoseconds()
}

// enqueue adds one request to w's queue and, when the worker is idle,
// either starts a full batch immediately or (re)arms the batch-close timer
// with the batching policy's current co-batching window.
func (s *simulator) enqueue(now int64, w *worker, req *Request) {
	w.queue = append(w.queue, queued{req: req, enq: now})
	if w.busy || !w.live() {
		return
	}
	if len(w.queue) >= s.sc.MaxBatch {
		s.startBatch(now, w)
		return
	}
	s.armClose(now, w)
}

// armClose (re)schedules w's batch-close timer: the batch closes when the
// oldest queued request has waited the policy's window for the current
// depth. Re-arming on every enqueue is what lets AdaptiveDelay respond to
// depth as it builds; a stale timer is invalidated by timerSeq.
func (s *simulator) armClose(now int64, w *worker) {
	closeAt := w.queue[0].enq + s.batching.CloseDelay(len(w.queue))
	w.timerSeq++
	seq := w.timerSeq
	if closeAt <= now {
		s.startBatch(now, w)
		return
	}
	s.schedule(closeAt, func(t int64) {
		if w.timerSeq == seq && !w.busy && w.live() && len(w.queue) > 0 {
			s.startBatch(t, w)
		}
	})
}

// startBatch takes up to MaxBatch requests off w's queue and executes them:
// the fault injector decides at the batch's call index whether the device
// is down or misfires (costing FaultDetect before the failure surfaces) or
// serves the batch in serviceNs.
func (s *simulator) startBatch(now int64, w *worker) {
	n := len(w.queue)
	if n > s.sc.MaxBatch {
		n = s.sc.MaxBatch
	}
	batch := make([]queued, n)
	copy(batch, w.queue[:n])
	w.queue = append(w.queue[:0], w.queue[n:]...)
	w.busy = true
	w.inflight = n
	w.timerSeq++
	w.calls++
	call := w.calls

	faulted := false
	if w.inj != nil {
		if w.inj.Down(call) {
			faulted = true
			w.inj.NoteOutage()
		} else if _, bad := w.inj.DrawShotFault(call, 0, 0, 0); bad {
			faulted = true
			w.inj.NoteShotFault()
		}
	}
	if faulted {
		detect := w.cfg.FaultDetect.Nanoseconds()
		s.schedule(now+detect, func(t int64) { s.completeFault(t, w, batch, detect) })
		return
	}
	service := w.serviceNs(n)
	s.schedule(now+service, func(t int64) { s.completeOK(t, w, batch, service) })
}

// completeOK retires one successful batch: latencies, shots, and aperture
// occupancy are recorded at completion time, then the worker picks up its
// next batch.
func (s *simulator) completeOK(now int64, w *worker, batch []queued, service int64) {
	w.busy = false
	w.inflight = 0
	w.health.Observe(service, true, s.sc.QuarantineThreshold)
	n := len(batch)
	for _, q := range batch {
		s.rec.completed(now, now-q.req.At)
	}
	s.rec.shots(now, int64(n)*w.cfg.ShotsPerSample)
	s.rec.busy(now, service, w.cfg.ApertureUtil)
	s.afterBatch(now, w)
}

// completeFault retires one faulted batch: the worker's health degrades
// (quarantining it at the scenario threshold, which also drains its queue),
// and every rider is re-dispatched through the routing policy with one more
// attempt on its clock — requests out of attempts are dropped.
func (s *simulator) completeFault(now int64, w *worker, batch []queued, detect int64) {
	w.busy = false
	w.inflight = 0
	s.rec.fault(now)
	if w.health.Observe(detect, false, s.sc.QuarantineThreshold) {
		s.quarantine(now, w)
	}
	for _, q := range batch {
		q.req.Attempts++
		if q.req.Attempts >= s.sc.MaxAttempts {
			s.rec.dropped(now)
			continue
		}
		s.dispatch(now, q.req)
	}
	if w.live() {
		s.afterBatch(now, w)
	}
}

// afterBatch restarts an idle worker on its remaining queue.
func (s *simulator) afterBatch(now int64, w *worker) {
	if len(w.queue) == 0 {
		return
	}
	if len(w.queue) >= s.sc.MaxBatch {
		s.startBatch(now, w)
		return
	}
	s.armClose(now, w)
}

// quarantine follows w's ladder out of the rotation: it re-routes w's
// queue and starts the probe cadence.
func (s *simulator) quarantine(now int64, w *worker) {
	w.timerSeq++
	s.rec.quarantine(now)
	drained := w.queue
	w.queue = nil
	for _, q := range drained {
		s.dispatch(now, q.req)
	}
	s.scheduleProbe(now, w)
}

// scheduleProbe arms w's next canary probe; probes stop at the horizon (by
// then no new arrivals can route to the worker anyway, which also lets the
// event loop drain).
func (s *simulator) scheduleProbe(now int64, w *worker) {
	at := now + s.sc.ProbeInterval.Nanoseconds()
	if at >= s.horizon {
		return
	}
	s.schedule(at, func(t int64) { s.probe(t, w) })
}

// probe replays a canary against the worker's fault model at the next call
// index WITHOUT advancing it (the pool's probe aligns to the call frontier
// the same way). A clean probe readmits the worker; a permanently dead
// device keeps failing and never flaps back in. The probe count feeds the
// draw's attempt coordinate so each probe of a transiently flaky device is
// an independent draw.
func (s *simulator) probe(now int64, w *worker) {
	if w.live() {
		return
	}
	w.probeCount++
	s.rec.probe(now)
	ok := true
	if w.inj != nil {
		if w.inj.Down(w.calls + 1) {
			ok = false
		} else if _, bad := w.inj.DrawShotFault(w.calls+1, 0, 1, w.probeCount); bad {
			ok = false
		}
	}
	if ok {
		w.health.Readmit()
		s.rec.readmit(now)
		return
	}
	s.scheduleProbe(now, w)
}
