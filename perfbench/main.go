// Command perfbench is the repository's benchmark. It runs one
// seeded workload through the public entry points — serve.Session.Infer,
// pool.DevicePool and nn.NetworkPlan.ForwardBatch — checks every output row
// bit for bit against a fault-free single-engine reference, and prints one
// JSON object with the metrics as the last line of standard output.
//
//	bash perfbench/run.sh --workload serve-direct --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics listed in BENCHMARK.json.
// With --trace 1 it runs the workload untraced and then traced on the same
// seed for half the time each, profiles every compiled step at the
// workload's batch shape, writes the spans and a self-time summary under
// .bench_build/trace, and prints the per-layer metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"photofourier/internal/backend"
	"photofourier/internal/jtc"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

// config is one benchmark invocation.
type config struct {
	w        workload
	seed     int64
	duration time.Duration
	trace    bool
	// setupRuns is how many fresh processes set-up time is measured in.
	setupRuns int
	// traceDir receives the spans file and the self-time summary.
	traceDir string
	// refWeightSeed seeds the reference network's weights. It equals
	// weightSeed except in the self-test, which proves that a reference of
	// other weights fails the run.
	refWeightSeed int64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricName struct{ name, unit string }

// endToEnd lists the metrics every untraced run prints. The p90 latency is
// a per-layer metric (e2e.latency_p90_ms) instead: on a shared 2-vCPU host
// it spread 28–39% across seeds on serve-direct, beyond the largest bound a
// metric may have.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"throughput_sps", "samples/s"},
	{"latency_p50_ms", "ms"},
	{"mem_peak_mb", "MB"},
}

// setupEnv carries "workload,seed" to a child process that measures one
// set-up and prints its seconds.
const setupEnv = "PERFBENCH_SETUP"

func main() {
	if probe := os.Getenv(setupEnv); probe != "" {
		os.Exit(setupChild(probe))
	}
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed of the inputs and the arrival schedule")
	seconds := flag.Int("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer profile")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds %d must be at least 1", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace %d must be 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	w.pinProcs()
	cfg := config{
		w:             w,
		seed:          *seed,
		duration:      time.Duration(*seconds) * time.Second,
		trace:         *trace == 1,
		setupRuns:     21,
		traceDir:      ".bench_build/trace",
		refWeightSeed: weightSeed,
	}
	env, err := json.Marshal(readEnv())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("env %s\n", env)
	res, err := run(cfg)
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload. A run whose outputs mismatch or that is not a
// valid measurement returns both its result (correct=false) and an error.
func run(cfg config) (*result, error) {
	if cfg.trace {
		return runTraced(cfg)
	}
	return runUntraced(cfg)
}

func runUntraced(cfg config) (*result, error) {
	setup, err := measureSetup(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	xs := makeInputs(cfg.seed, cfg.w.inputs)
	ph, err := runPhase(cfg.w, cfg.w.net(weightSeed), xs, cfg.seed, cfg.duration, false)
	if err != nil {
		return nil, err
	}
	mem := peakRSSMB()
	res, verr := verify(cfg, xs, ph)
	if res == nil {
		return nil, verr
	}
	e := e2e(ph)
	res.Metrics = collect(endToEnd, map[string]float64{
		"setup_s":        setup,
		"throughput_sps": e.throughput,
		"latency_p50_ms": e.p50,
		"mem_peak_mb":    mem,
	})
	return res, verr
}

// endToEndValues are the timing metrics of one phase.
type endToEndValues struct{ throughput, p50, p90 float64 }

// e2e derives the timing metrics. Latency percentiles are over every
// completed request, or every batch call on a closed loop. Throughput on
// the open loop is completed samples over the phase's wall time; on a
// closed loop it is the batch over the median call, the rate its caller
// sees in a typical call, since a mean over the calls follows the host's
// stalls (the tail is e2e.latency_p90_ms).
func e2e(ph *phase) endToEndValues {
	v := endToEndValues{p50: ph.latency(0.5), p90: ph.latency(0.9)}
	if ph.calls == nil {
		v.throughput = float64(ph.completed()) / ph.wall.Seconds()
	} else if v.p50 > 0 {
		v.throughput = float64(ph.calls[0].samples) / (v.p50 / 1000)
	}
	return v
}

// collect orders the values by the metric list and attaches units.
func collect(names []metricName, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, m := range names {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out
}

// runPhase opens the workload, warms it with a fixed count of requests and
// measures it for d.
func runPhase(w workload, net *nn.Network, xs []*tensor.Tensor, seed int64, d time.Duration, traced bool) (*phase, error) {
	sys, err := openSystem(w, net, traced)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	if err := sys.warmUp(w, xs); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var before *snapshot
	if traced {
		before = takeSnapshot(sys)
	}
	shots0 := jtc.Shots()
	var ph *phase
	start := time.Now()
	if sys.exec != nil {
		sys.exec.reset(start)
	}
	if w.openLoop() {
		ph = runOpenLoop(sys.session, xs, makeSchedule(seed, w.rate, d, len(xs)), start)
	} else {
		ph = runClosedLoop(sys.forward, xs, makeBatches(seed, 64, w.batch, len(xs)), d, start)
	}
	ph.shots = jtc.Shots() - shots0
	if traced {
		ph.layers = layerStats(sys, before, takeSnapshot(sys), ph)
	}
	return ph, nil
}

// verify compares every completed row with the reference and checks that
// an open-loop run stayed within capacity. The reference is built here,
// after the timed phase, so it warms no cache the measurement depends on.
func verify(cfg config, xs []*tensor.Tensor, phases ...*phase) (*result, error) {
	res := &result{}
	eng, err := backend.Open(cfg.w.refSpec)
	if err != nil {
		return nil, err
	}
	ref, err := cfg.w.net(cfg.refWeightSeed).Compile(eng)
	if err != nil {
		return nil, err
	}
	rows := map[int][]float64{}
	var errs []error
	mismatches := 0
	for _, ph := range phases {
		for _, r := range ph.recs {
			res.Attempted++
			if r.err != nil {
				res.Failed++
				if len(errs) < 3 {
					errs = append(errs, r.err)
				}
				continue
			}
			want, ok := rows[r.input]
			if !ok {
				b, err := xs[r.input].Reshape(append([]int{1}, sampleShape...)...)
				if err != nil {
					return nil, err
				}
				out, err := ref.ForwardBatch(b)
				if err != nil {
					return nil, fmt.Errorf("reference: %w", err)
				}
				want = out.Data
				rows[r.input] = want
			}
			if !sameBits(r.logits, want) {
				res.Failed++
				mismatches++
			}
		}
		if cfg.w.openLoop() {
			offered := len(ph.recs)
			if done := ph.completed(); float64(done) < 0.95*float64(offered) {
				errs = append(errs, fmt.Errorf("invalid run: %d of %d offered requests completed", done, offered))
			}
			if ph.backlog > 0 {
				errs = append(errs, fmt.Errorf("invalid run: %d requests outstanding %v after the schedule ended", ph.backlog, backlogGrace))
			}
		}
	}
	if mismatches > 0 {
		errs = append(errs, fmt.Errorf("%d output rows differ from the %s reference", mismatches, cfg.w.refSpec))
	}
	if res.Failed > 0 && len(errs) == 0 {
		errs = append(errs, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted))
	}
	res.Correct = len(errs) == 0
	return res, errors.Join(errs...)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// measureSetup runs cfg.setupRuns fresh processes, each timing one set-up,
// and returns the median in seconds.
func measureSetup(cfg config) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var runs []float64
	for i := 0; i < cfg.setupRuns; i++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s,%d", setupEnv, cfg.w.name, cfg.seed))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up process: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(out.String()), 64)
		if err != nil {
			return 0, fmt.Errorf("set-up process printed %q: %w", out.String(), err)
		}
		runs = append(runs, s)
	}
	return median(runs), nil
}

// setupChild measures one set-up in this fresh process: from the first
// backend or pool open to the first completed batch-1 request.
func setupChild(probe string) int {
	name, seedText, _ := strings.Cut(probe, ",")
	w, err := findWorkload(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	seed, err := strconv.ParseInt(seedText, 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: bad set-up seed:", err)
		return 2
	}
	w.pinProcs()
	x := makeInputs(seed, 1)[0]
	net := w.net(weightSeed)
	start := time.Now()
	sys, err := openSystem(w, net, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer sys.close()
	if err := sys.first(x); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(time.Since(start).Seconds())
	return 0
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// envRecord describes the host a result was measured on.
type envRecord struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readEnv() envRecord {
	env := envRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				env.GOAMD64 = s.Value
			}
		}
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}
