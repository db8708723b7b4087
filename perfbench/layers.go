package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"photofourier/internal/jtc"
	"photofourier/internal/pool"
	"photofourier/internal/serve"
)

// snapshot holds the counters the traced phase diffs.
type snapshot struct {
	health   serve.Health
	counters pool.Counters
	devs     []pool.DeviceHealth
	mem      runtime.MemStats
	retried  int64
}

func takeSnapshot(sys *system) *snapshot {
	s := &snapshot{retried: jtc.RetriedShots()}
	if sys.session != nil {
		s.health = sys.session.Health()
	}
	if sys.pool != nil {
		s.counters = sys.pool.Counters()
		s.devs = sys.pool.DeviceHealth()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// layers is the traced phase's per-layer measurements of the serve, pool,
// jtc and Go runtime layers, plus the batch size the step profile uses.
type layers struct {
	vals  map[string]float64
	calls []execSpan
	batch int
}

func layerStats(sys *system, before, after *snapshot, ph *phase) *layers {
	l := &layers{vals: map[string]float64{}, batch: 1}
	v := l.vals
	wall := ph.wall.Seconds()
	done := float64(ph.completed())
	v["jtc.shots_per_sample"] = ratio(float64(ph.shots), done)
	v["jtc.retried_shots"] = float64(after.retried - before.retried)
	v["go.allocs_per_sample"] = ratio(float64(after.mem.Mallocs-before.mem.Mallocs), done)
	v["go.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	l.calls = sys.exec.recorded()
	if len(l.calls) > 0 {
		l.batch = l.calls[0].samples
	}
	if sys.session != nil {
		l.serveStats(before, after, ph, wall)
	}
	if sys.pool == nil {
		return l
	}

	var overhead []float64
	for _, c := range l.calls {
		overhead = append(overhead, ms(c.end-c.start-c.busiest))
	}
	c0, c1 := before.counters, after.counters
	fracs := make([]float64, len(after.devs))
	samples := uint64(0)
	for i, d := range after.devs {
		fracs[i] = ratio((d.Busy - before.devs[i].Busy).Seconds(), wall)
		samples += d.Samples - before.devs[i].Samples
	}
	sort.Float64s(fracs)
	shards := float64(c1.Shards - c0.Shards)
	v["pool.overhead_ms.p50"] = percentile(overhead, 0.5)
	v["pool.busy_frac.max"] = fracs[len(fracs)-1]
	v["pool.busy_frac.min"] = fracs[0]
	v["pool.shards_per_call"] = ratio(shards, float64(c1.Requests-c0.Requests))
	v["pool.hedges"] = float64(c1.Hedges - c0.Hedges)
	v["pool.quarantines"] = float64(c1.Quarantines - c0.Quarantines)
	// Each device runs its shard alone, so the profile's batch is a shard.
	l.batch = max(1, int(math.Round(ratio(float64(samples), shards))))
	return l
}

// serveStats measures the serving session: generator lateness, each
// request's wait outside the executor call that carried it, and the
// session's own counters. The profile's batch is the mean session batch.
func (l *layers) serveStats(before, after *snapshot, ph *phase, wall float64) {
	var late, queue, exec []float64
	busy := 0.0
	for _, c := range l.calls {
		exec = append(exec, ms(c.end-c.start))
		busy += (c.end - c.start).Seconds()
	}
	for _, r := range ph.recs {
		if r.err != nil {
			continue
		}
		late = append(late, ms(r.called-r.due))
		if k := carrier(l.calls, r.done); k >= 0 {
			c := l.calls[k]
			queue = append(queue, ms(r.done-r.called)-ms(c.end-c.start))
		}
	}
	h0, h1 := before.health, after.health
	v := l.vals
	v["gen.late_ms.p90"] = percentile(late, 0.9)
	v["serve.queue_ms.p50"] = percentile(queue, 0.5)
	v["serve.queue_ms.p90"] = percentile(queue, 0.9)
	v["serve.exec_ms.p50"] = percentile(exec, 0.5)
	v["serve.batch_size.mean"] = ratio(float64(h1.Samples-h0.Samples), float64(h1.Batches-h0.Batches))
	v["serve.busy_frac"] = ratio(busy, wall)
	v["serve.retries"] = float64(h1.Retries - h0.Retries)
	v["serve.shed"] = float64(h1.Shed - h0.Shed)
	l.batch = max(1, int(math.Round(v["serve.batch_size.mean"])))
}

// runTraced runs the workload untraced and then traced on the same seed,
// profiles its steps, checks every output and reports per-layer metrics.
func runTraced(cfg config) (*result, error) {
	xs := makeInputs(cfg.seed, cfg.w.inputs)
	net := cfg.w.net(weightSeed)
	half := cfg.duration / 2
	plain, err := runPhase(cfg.w, net, xs, cfg.seed, half, false)
	if err != nil {
		return nil, err
	}
	traced, err := runPhase(cfg.w, net, xs, cfg.seed, half, true)
	if err != nil {
		return nil, err
	}

	var log spanLog
	if cfg.w.openLoop() {
		requestSpans(&log, traced, traced.layers.calls)
	} else {
		name := "nn.forward_batch"
		if cfg.w.pooled() {
			name = "pool.forward_batch"
		}
		for _, c := range traced.layers.calls {
			call := log.add(name, c.start, c.end, -1, -1)
			if c.busiest > 0 {
				log.add("pool.device_busy", c.start, c.start+c.busiest, call, -1)
			}
		}
	}
	profile, err := profileSteps(cfg.w, net, xs, traced.layers.batch, &log, traced.start)
	if err != nil {
		return nil, fmt.Errorf("step profile: %w", err)
	}
	res, verr := verify(cfg, xs, plain, traced)
	if res == nil {
		return nil, verr
	}

	vals := traced.layers.vals
	for _, p := range profile {
		if !p.conv {
			vals[p.name+".ms"] = p.ms
			continue
		}
		vals["core.step"+p.label+".ms"] = p.ms
		vals["core.step"+p.label+".arch_ns"] = p.archNs
		vals["jtc.step"+p.label+".shots_per_sample"] = p.shots
		vals["tiling.step"+p.label+".ktransforms"] = float64(p.ktrans)
	}
	a, b := e2e(plain), e2e(traced)
	vals["e2e.latency_p90_ms"] = a.p90
	vals["trace.overhead.throughput_sps"] = b.throughput - a.throughput
	vals["trace.overhead.latency_p50_ms"] = b.p50 - a.p50
	vals["trace.overhead.latency_p90_ms"] = b.p90 - a.p90

	names, err := perLayerNames()
	if err != nil {
		return nil, err
	}
	res.Metrics = collect(names, vals)
	stem := fmt.Sprintf("%s-seed%d", cfg.w.name, cfg.seed)
	summary, err := writeTrace(cfg.traceDir, stem, readEnv(), log.spans)
	if err != nil {
		return nil, fmt.Errorf("trace output: %w", err)
	}
	fmt.Printf("trace %s (batch %d, %d spans)\n", summary, traced.layers.batch, len(log.spans))
	return res, verr
}

// perLayerNames lists every per-layer metric, the same on every workload
// so that each run prints them all. Step metrics are named by compiled
// step index over the union of the workloads' networks; a step index a
// workload's network lacks, or holds a step of the other kind at, reads 0.
func perLayerNames() ([]metricName, error) {
	names := []metricName{
		{"e2e.latency_p90_ms", "ms"},
		{"gen.late_ms.p90", "ms"},
		{"serve.queue_ms.p50", "ms"},
		{"serve.queue_ms.p90", "ms"},
		{"serve.exec_ms.p50", "ms"},
		{"serve.batch_size.mean", "samples"},
		{"serve.busy_frac", "fraction"},
		{"serve.retries", "count"},
		{"serve.shed", "count"},
		{"pool.overhead_ms.p50", "ms"},
		{"pool.busy_frac.max", "fraction"},
		{"pool.busy_frac.min", "fraction"},
		{"pool.shards_per_call", "shards"},
		{"pool.hedges", "count"},
		{"pool.quarantines", "count"},
	}
	conv, cpu := map[string]bool{}, map[string]bool{}
	for _, w := range workloads {
		plan, err := w.net(weightSeed).Compile(nil)
		if err != nil {
			return nil, err
		}
		metas, err := plan.StepMetas(sampleShape[0], sampleShape[1], sampleShape[2])
		if err != nil {
			return nil, err
		}
		for _, g := range stepGroups(metas) {
			if g.conv {
				conv[g.label] = true
			} else {
				cpu[g.label] = true
			}
		}
	}
	for _, l := range sortedLabels(cpu) {
		names = append(names, metricName{"nn.step" + l + ".ms", "ms"})
	}
	convLabels := sortedLabels(conv)
	for _, l := range convLabels {
		names = append(names, metricName{"core.step" + l + ".ms", "ms"})
	}
	for _, l := range convLabels {
		names = append(names, metricName{"core.step" + l + ".arch_ns", "ns"})
	}
	for _, l := range convLabels {
		names = append(names, metricName{"jtc.step" + l + ".shots_per_sample", "shots"})
	}
	names = append(names,
		metricName{"jtc.shots_per_sample", "shots"},
		metricName{"jtc.retried_shots", "count"},
	)
	for _, l := range convLabels {
		names = append(names, metricName{"tiling.step" + l + ".ktransforms", "count"})
	}
	return append(names,
		metricName{"go.allocs_per_sample", "count"},
		metricName{"go.gc_pause_ms", "ms"},
		metricName{"trace.overhead.throughput_sps", "samples/s"},
		metricName{"trace.overhead.latency_p50_ms", "ms"},
		metricName{"trace.overhead.latency_p90_ms", "ms"},
	), nil
}

func sortedLabels(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return stepLabelLess(out[i], out[j]) })
	return out
}
