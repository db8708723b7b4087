package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"photofourier/internal/backend"
	"photofourier/internal/jtc"
	"photofourier/internal/nn"
	"photofourier/internal/pool"
	"photofourier/internal/serve"
	"photofourier/internal/tensor"
	"photofourier/internal/tiling"
)

// execSpan is one ForwardBatch call into the plan or pool.
type execSpan struct {
	start, end time.Duration
	samples    int
	// busiest is the largest per-device DeviceHealth.Busy growth during
	// the call (pool only): the shard that set the call's time.
	busiest time.Duration
}

// tracedExec wraps the plan or pool to time every ForwardBatch call. It
// forwards the optional interfaces serve.Session discovers, so a session
// behaves as it does over the bare executor.
type tracedExec struct {
	inner     serve.Executor
	pool      *pool.DevicePool
	src       *nn.Network
	invariant bool

	mu    sync.Mutex
	base  time.Time
	spans []execSpan
}

func newTracedExec(inner serve.Executor, p *pool.DevicePool, net *nn.Network, invariant bool) *tracedExec {
	return &tracedExec{inner: inner, pool: p, src: net, invariant: invariant, base: time.Now()}
}

// reset drops the spans recorded so far and times later calls from base.
func (t *tracedExec) reset(base time.Time) {
	t.mu.Lock()
	t.base, t.spans = base, nil
	t.mu.Unlock()
}

func (t *tracedExec) ForwardBatch(x *tensor.Tensor) (*tensor.Tensor, error) {
	var before []pool.DeviceHealth
	if t.pool != nil {
		before = t.pool.DeviceHealth()
	}
	t.mu.Lock()
	base := t.base
	t.mu.Unlock()
	start := time.Since(base)
	out, err := t.inner.ForwardBatch(x)
	sp := execSpan{start: start, end: time.Since(base), samples: x.Shape[0]}
	if t.pool != nil {
		for i, h := range t.pool.DeviceHealth() {
			sp.busiest = max(sp.busiest, h.Busy-before[i].Busy)
		}
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return out, err
}

func (t *tracedExec) BatchInvariant() bool { return t.invariant }

func (t *tracedExec) Source() *nn.Network { return t.src }

func (t *tracedExec) EffectiveBatch(configured int) int {
	if t.pool == nil {
		return configured
	}
	return t.pool.EffectiveBatch(configured)
}

func (t *tracedExec) DeviceHealth() []pool.DeviceHealth {
	if t.pool == nil {
		return nil
	}
	return t.pool.DeviceHealth()
}

func (t *tracedExec) recorded() []execSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]execSpan(nil), t.spans...)
}

// span is one traced interval. Times are milliseconds from the start of
// the traced phase; Parent and Req are -1 when absent.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
}

type spanLog struct{ spans []span }

func (l *spanLog) add(name string, start, end time.Duration, parent, req int) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Name: name, Start: ms(start), End: ms(end), Parent: parent, Req: req})
	return id
}

// carrier returns the index of the executor call that answered a request
// completed at done: the session runs one call at a time and replies as
// soon as the call returns, so it is the last call that ended by then.
func carrier(calls []execSpan, done time.Duration) int {
	return sort.Search(len(calls), func(i int) bool { return calls[i].end > done }) - 1
}

// requestSpans records, per served request, its generator lateness, its
// Infer span and, as the Infer span's child, the executor call that
// carried it. On a pool the call's child is the busiest device's busy
// time, placed at the call's start, so the call's self time is the pool's
// own overhead.
func requestSpans(l *spanLog, ph *phase, calls []execSpan) {
	for i, r := range ph.recs {
		if r.err != nil {
			continue
		}
		l.add("gen.late", r.due, r.called, -1, i)
		req := l.add("serve.request", r.called, r.done, -1, i)
		k := carrier(calls, r.done)
		if k < 0 {
			continue
		}
		c := calls[k]
		ex := l.add("serve.exec", c.start, c.end, req, i)
		if c.busiest > 0 {
			l.add("pool.device_busy", c.start, c.start+c.busiest, ex, i)
		}
	}
}

// stepProfile is one plan step (or a CPU step fused with the steps after
// it that take no CHW input) timed at the workload's batch shape.
type stepProfile struct {
	label    string // "3", or "6-7" for a fused range
	name     string // span name: core.step<label> or nn.step<label>
	from, to int
	conv     bool
	ms       float64 // median call time at the profiled batch size
	archNs   float64 // arch-model time per sample (conv steps)
	shots    float64 // modeled shots per sample (conv steps)
	ktrans   int64   // kernel-tile transforms while planning and running
}

// profileReps bounds how often each step is timed.
const (
	profileMinReps = 5
	profileMaxReps = 200
	profileBudget  = 250 * time.Millisecond
)

// profileSteps times every compiled step of net at batch size n on a fresh
// engine of the workload's device spec: conv steps through a layer plan
// from backend.Engine.PlanConv with the layer's weights and its batch entry
// point, CPU steps through NetworkPlan.ForwardSteps. Each step runs on the
// per-sample activations that reach it.
func profileSteps(w workload, net *nn.Network, xs []*tensor.Tensor, n int, l *spanLog, base time.Time) ([]stepProfile, error) {
	spec, err := w.deviceSpec()
	if err != nil {
		return nil, err
	}
	eng, err := backend.Open(spec)
	if err != nil {
		return nil, err
	}
	plan, err := net.Compile(eng)
	if err != nil {
		return nil, err
	}
	metas, err := plan.StepMetas(sampleShape[0], sampleShape[1], sampleShape[2])
	if err != nil {
		return nil, err
	}
	costs := pool.StepCosts(metas)
	convs := convModules(net)

	// acts[i] holds step i's input for each sample, while it is CHW.
	acts := make([][]*tensor.Tensor, len(metas))
	for s := 0; s < n; s++ {
		a, err := xs[s%len(xs)].Reshape(append([]int{1}, sampleShape...)...)
		if err != nil {
			return nil, err
		}
		for i := range metas {
			acts[i] = append(acts[i], a)
			if len(metas[i].Out) != 3 {
				break
			}
			if a, err = plan.ForwardSteps(a, i, i+1); err != nil {
				return nil, fmt.Errorf("step %d activations: %w", i, err)
			}
		}
	}

	root := l.add("profile", time.Since(base), 0, -1, -1)
	var out []stepProfile
	conv := 0
	for _, p := range stepGroups(metas) {
		i := p.from
		x := stack(acts[i], seq(0, n, n), acts[i][0].Shape[1:])
		var call func() error
		kt0 := tiling.KernelTileTransforms()
		if p.conv {
			if conv >= len(convs) {
				return nil, fmt.Errorf("step %d: plan has more conv steps than the network", i)
			}
			c := convs[conv]
			conv++
			if g := metas[i].Conv; c.Weight.W.Shape[0] != g.Cout || c.Weight.W.Shape[1] != g.Cin {
				return nil, fmt.Errorf("step %d: conv module order does not match the plan", i)
			}
			lp, err := eng.PlanConv(c.Weight.W, c.Bias.W.Data, c.Stride, c.Pad)
			if err != nil {
				return nil, err
			}
			blp, ok := lp.(nn.BatchLayerPlan)
			if !ok {
				return nil, fmt.Errorf("step %d: %s plans no batch entry point", i, spec)
			}
			call = func() error {
				first := blp.ReserveCalls(uint64(n)) + 1
				_, err := blp.ForwardBatchCalls(x, first, 1)
				return err
			}
			p.archNs = costs[i] * 1e9
		} else {
			call = func() error {
				_, err := plan.ForwardSteps(x, p.from, p.to)
				return err
			}
		}
		// One untimed call fills the step's lazy per-geometry state.
		if err := call(); err != nil {
			return nil, fmt.Errorf("step %s: %w", p.label, err)
		}
		shots0 := jtc.Shots()
		var times []float64
		began := time.Now()
		for len(times) < profileMaxReps && (len(times) < profileMinReps || time.Since(began) < profileBudget) {
			t0 := time.Since(base)
			if err := call(); err != nil {
				return nil, fmt.Errorf("step %s: %w", p.label, err)
			}
			t1 := time.Since(base)
			l.add(p.name, t0, t1, root, -1)
			times = append(times, ms(t1-t0))
		}
		p.ms = median(times)
		if p.conv {
			p.shots = float64(jtc.Shots()-shots0) / float64(len(times)*n)
		}
		p.ktrans = tiling.KernelTileTransforms() - kt0
		out = append(out, p)
	}
	l.spans[root].End = ms(time.Since(base))
	return out, nil
}

// stepGroups splits a plan's steps into the units the profile times: each
// conv step alone, and each CPU step together with the steps after it
// that take no CHW input (ForwardSteps accepts only NCHW batches).
func stepGroups(metas []nn.StepMeta) []stepProfile {
	var out []stepProfile
	for i := 0; i < len(metas); {
		p := stepProfile{from: i, to: i + 1, conv: metas[i].Conv != nil}
		for !p.conv && p.to < len(metas) && len(metas[p.to-1].Out) != 3 {
			p.to++
		}
		p.label = strconv.Itoa(i)
		if p.to > i+1 {
			p.label = fmt.Sprintf("%d-%d", i, p.to-1)
		}
		p.name = "nn.step" + p.label
		if p.conv {
			p.name = "core.step" + p.label
		}
		out = append(out, p)
		i = p.to
	}
	return out
}

// convModules lists the network's convolutions in execution order.
func convModules(net *nn.Network) []*nn.Conv {
	var out []*nn.Conv
	nn.Walk(net.Root, func(m nn.Module) {
		if c, ok := m.(*nn.Conv); ok {
			out = append(out, c)
		}
	})
	return out
}

// writeTrace writes the spans, one JSON object per line, and a self-time
// summary per span name. A span's self time is its duration minus its
// children's.
func writeTrace(dir, stem string, env envRecord, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	spansPath := filepath.Join(dir, stem+".spans.jsonl")
	if err := writeLines(spansPath, func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return "", err
	}

	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type agg struct {
		name        string
		count       int
		total, self float64
		selves      []float64
	}
	byName := map[string]*agg{}
	for i, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{name: s.Name}
			byName[s.Name] = a
		}
		d := s.End - s.Start
		a.count++
		a.total += d
		a.self += d - child[i]
		a.selves = append(a.selves, d-child[i])
	}
	rows := make([]*agg, 0, len(byName))
	for _, a := range byName {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	summaryPath := filepath.Join(dir, stem+".summary.txt")
	err := writeLines(summaryPath, func(w *bufio.Writer) error {
		envJSON, err := json.Marshal(env)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "env %s\n", envJSON)
		fmt.Fprintf(w, "%-20s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_p50_ms")
		for _, a := range rows {
			fmt.Fprintf(w, "%-20s %8d %12.3f %12.3f %12.4f\n", a.name, a.count, a.total, a.self, median(a.selves))
		}
		return nil
	})
	return summaryPath, err
}

func writeLines(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// stepLabelLess orders labels such as "3" and "6-7" by their first step.
func stepLabelLess(a, b string) bool {
	fa, _, _ := strings.Cut(a, "-")
	fb, _, _ := strings.Cut(b, "-")
	ia, _ := strconv.Atoi(fa) // labels are built from step indices
	ib, _ := strconv.Atoi(fb)
	if ia != ib {
		return ia < ib
	}
	return a < b
}
