package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"photofourier/internal/sim"
)

// simConfig bundles the fleet-simulator CLI knobs.
type simConfig struct {
	scenario  string
	out       string // JSONL metrics path ("" = don't write)
	trace     string // JSONL arrival trace to replay ("" = none)
	seed      uint64
	duration  time.Duration
	pool      int
	chaos     bool
	admission string
	batching  string
	routing   string
	calibrate string // comma-separated BENCH snapshot paths ("" = hand-tuned costs)
	jsonOut   bool
}

// runSim executes one named fleet-simulation scenario, optionally
// overridden by the CLI knobs, and prints the SLO report (or, with
// -sim-json, the raw summary JSON — the form the frozen BENCH_9.json
// embeds). The JSONL metrics timeline written via -sim-out is
// re-validated after the run, so a malformed report fails loudly here
// rather than downstream.
func runSim(cfg simConfig) error {
	sc, err := sim.Named(cfg.scenario)
	if err != nil {
		return err
	}
	if cfg.seed != 0 {
		sc.Seed = cfg.seed
	}
	if cfg.duration > 0 {
		sc.Duration = cfg.duration
	}
	if cfg.pool > 0 {
		// Replicate worker 0's cost model into a clean homogeneous fleet of
		// the requested size; per-worker fault specs only survive for slots
		// that existed in the named scenario (chaos stays meaningful at the
		// original pool size).
		ref := sc.Workers[0]
		ref.Fault, ref.FaultSeed = "", 0
		ws := make([]sim.WorkerConfig, cfg.pool)
		for i := range ws {
			ws[i] = ref
			if i < len(sc.Workers) {
				ws[i].Fault = sc.Workers[i].Fault
				ws[i].FaultSeed = sc.Workers[i].FaultSeed
			}
		}
		sc.Workers = ws
	}
	if !cfg.chaos {
		for i := range sc.Workers {
			sc.Workers[i].Fault = ""
		}
	}
	if cfg.admission != "" {
		sc.Admission = cfg.admission
	}
	if cfg.batching != "" {
		sc.Batching = cfg.batching
	}
	if cfg.routing != "" {
		sc.Routing = cfg.routing
	}
	if cfg.calibrate != "" {
		cal, err := sim.CalibrateWorkers(strings.Split(cfg.calibrate, ",")...)
		if err != nil {
			return err
		}
		for i := range sc.Workers {
			sc.Workers[i] = cal.Apply(sc.Workers[i])
		}
		if !cfg.jsonOut {
			fmt.Printf("calibrated: base=%v per-sample=%v shots/sample=%d (from %s)\n",
				cal.BatchBase, cal.PerSample, cal.ShotsPerSample, strings.Join(cal.Sources, " "))
		}
	}
	if cfg.trace != "" {
		f, err := os.Open(cfg.trace)
		if err != nil {
			return err
		}
		arrivals, err := sim.LoadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		// A replayed trace IS the workload: drop the scenario's synthetic
		// sources so the run reproduces exactly the recorded arrivals.
		sc.Trace = arrivals
		sc.PoissonRate = 0
		sc.Tenants = 0
		sc.Burst = nil
	}

	var buf bytes.Buffer
	sum, err := sim.Run(sc, &buf)
	if err != nil {
		return err
	}
	if _, err := sim.ValidateJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		return fmt.Errorf("sim: emitted metrics failed validation: %w", err)
	}
	if cfg.out != "" {
		if err := os.WriteFile(cfg.out, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}

	if cfg.jsonOut {
		b, err := json.Marshal(sum)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	printSimReport(sum, cfg.out)
	return nil
}

func printSimReport(sum sim.Summary, out string) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Printf("scenario %s (seed %d): %d workers, %v virtual\n",
		sum.Scenario, sum.Seed, sum.Workers, time.Duration(sum.DurationNs))
	fmt.Printf("policies: admission=%s batching=%s routing=%s\n",
		sum.Admission, sum.Batching, sum.Routing)
	fmt.Printf("traffic:  %d arrivals, %d admitted, %d shed (%.2f%%), %d dropped, %d completed\n",
		sum.Arrivals, sum.Admitted, sum.Shed, 100*sum.ShedRate, sum.Dropped, sum.Completed)
	fmt.Printf("latency:  p50=%.2fms p99=%.2fms p999=%.2fms (max queue depth %d)\n",
		ms(sum.P50Ns), ms(sum.P99Ns), ms(sum.P999Ns), sum.MaxQueueDepth)
	fmt.Printf("fleet:    %.0f shots/s, mean aperture util %.3f, %d faults, %d quarantines, %d probes, %d readmits\n",
		sum.ShotsPerSec, sum.MeanApertureUtil, sum.Faults, sum.Quarantines, sum.Probes, sum.Readmits)
	verdict := "MET"
	if !sum.SLOOK {
		verdict = "MISSED"
	}
	fmt.Printf("SLO:      p99 %.2fms vs ceiling %.2fms — %s\n",
		ms(sum.P99Ns), ms(sum.SLOP99Ns), verdict)
	if out != "" {
		fmt.Printf("timeline: %d buckets written to %s\n", sum.Buckets, out)
	}
}
