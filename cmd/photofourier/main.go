// Command photofourier regenerates the paper's tables and figures.
//
// Usage:
//
//	photofourier -experiment all        # run everything (default)
//	photofourier -experiment fig7      # one experiment
//	photofourier -list                 # list experiment ids
//	photofourier -quick                # smaller datasets / fewer epochs
//	photofourier -serve-bench          # compiled/batched inference throughput
//	photofourier -serve-bench -engine "accelerator-noisy?nta=8"
//	                                   # ... on a specific engine spec
//	photofourier -sim device-outage    # fleet simulation with an SLO report
//	photofourier -sim-list             # list named simulation scenarios
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"photofourier/internal/experiments"
	"photofourier/internal/sim"
)

func main() {
	exp := flag.String("experiment", "all", "experiment id or 'all'")
	quick := flag.Bool("quick", false, "reduced-cost mode (smaller datasets, fewer epochs)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	bench := flag.Bool("serve-bench", false, "measure end-to-end inference throughput (uncompiled vs compiled vs batched session) and exit")
	engine := flag.String("engine", "accelerator", "serve-bench engine spec (name?key=val,..., e.g. accelerator-noisy?nta=8)")
	benchPool := flag.String("pool", "", "serve-bench device pool spec (pool?key=val,..,devices=spec|spec*N|..); overrides -engine and skips the per-sample baselines")
	benchSamples := flag.Int("serve-samples", 256, "samples per serve-bench mode")
	benchBatch := flag.Int("serve-batch", 8, "serve-bench session micro-batch size")
	benchClients := flag.Int("serve-clients", 8, "serve-bench concurrent clients")
	benchDelay := flag.Duration("serve-delay", 500*time.Microsecond, "serve-bench session micro-batch deadline")
	benchFailover := flag.String("serve-failover", "", "serve-bench standby backend spec (e.g. reference); skips the per-sample baseline modes")
	benchRetries := flag.Int("serve-retries", 0, "serve-bench session primary retries (0 = default 2)")
	benchBackoff := flag.Duration("serve-backoff", 0, "serve-bench session retry backoff base (0 = retry immediately)")
	simName := flag.String("sim", "", "run a named fleet-simulation scenario and print its SLO report")
	simList := flag.Bool("sim-list", false, "list fleet-simulation scenario names and exit")
	simOut := flag.String("sim-out", "", "sim: write the per-bucket JSONL metrics timeline to this path")
	simJSON := flag.Bool("sim-json", false, "sim: print the run summary as a single JSON line instead of the report")
	simSeed := flag.Uint64("sim-seed", 0, "sim: override the scenario seed (0 = scenario default)")
	simDuration := flag.Duration("sim-duration", 0, "sim: override the scenario duration (0 = scenario default)")
	simPool := flag.Int("sim-pool", 0, "sim: override the fleet size, replicating the scenario's reference worker (0 = scenario default)")
	simChaos := flag.Bool("sim-chaos", true, "sim: keep the scenario's fault injection (false strips all worker fault specs)")
	simAdmission := flag.String("sim-admission", "", "sim: override the admission policy spec (accept-all | token-bucket?rate=,burst=)")
	simBatching := flag.String("sim-batching", "", "sim: override the batching policy spec (fixed?delay= | adaptive?base=,min=,max=,setpoint=)")
	simRouting := flag.String("sim-routing", "", "sim: override the routing policy spec (round-robin | least-loaded)")
	simTrace := flag.String("sim-trace", "", "sim: replay a JSONL arrival trace ({\"at_ns\":..,\"tenant\":..} per line) as the workload, replacing the scenario's synthetic sources")
	simCalibrate := flag.String("sim-calibrate", "", "sim: comma-separated BENCH snapshot JSON paths, each with a forward_batch.{net}.batch{1,8,32} table (e.g. BENCH_8.json,BENCH_5.json); derives every worker's BatchBase/PerSample/ShotsPerSample from the measured tables instead of the hand-tuned defaults")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	if *simList {
		fmt.Println(strings.Join(sim.Names(), "\n"))
		return
	}
	if *simName != "" {
		cfg := simConfig{
			scenario:  *simName,
			out:       *simOut,
			trace:     *simTrace,
			seed:      *simSeed,
			duration:  *simDuration,
			pool:      *simPool,
			chaos:     *simChaos,
			admission: *simAdmission,
			batching:  *simBatching,
			routing:   *simRouting,
			calibrate: *simCalibrate,
			jsonOut:   *simJSON,
		}
		if err := runSim(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	if *bench {
		cfg := serveBenchConfig{
			spec:     *engine,
			pool:     *benchPool,
			samples:  *benchSamples,
			batch:    *benchBatch,
			clients:  *benchClients,
			delay:    *benchDelay,
			failover: *benchFailover,
			retries:  *benchRetries,
			backoff:  *benchBackoff,
		}
		if err := serveBench(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	opt := experiments.Options{Quick: *quick}
	if *exp == "all" {
		results, err := experiments.RunAll(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		for _, r := range results {
			fmt.Println(r)
		}
		return
	}
	r, err := experiments.Run(*exp, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Println(r)
}
