package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"photofourier/internal/backend"
	"photofourier/internal/fault"
	"photofourier/internal/jtc"
	"photofourier/internal/nn"
	"photofourier/internal/pool"
	"photofourier/internal/serve"
	"photofourier/internal/tensor"
)

// serveBenchConfig bundles the serve-bench CLI knobs.
type serveBenchConfig struct {
	spec     string
	pool     string
	samples  int
	batch    int
	clients  int
	delay    time.Duration
	failover string
	retries  int
	backoff  time.Duration
}

// serveBench measures end-to-end inference throughput of a registry-opened
// engine spec across the three serving modes this repo supports:
//
//   - uncompiled per-sample: Network.Forward with planning suppressed (the
//     spec's unplanned twin at the identical operating point — module-graph
//     walking plus per-call weight quantization and four-sweep terms);
//   - compiled per-sample: one NetworkPlan.Forward call per sample;
//   - compiled batched: concurrent clients through an InferenceSession,
//     which micro-batches them onto one shared plan.
//
// With -serve-failover set the two per-sample baseline modes are skipped:
// a chaos spec with a device outage would kill them (they have no recovery
// ladder), and the point of a failover run is the self-healing session.
//
// This is the CLI twin of the BenchmarkNetInference suite recorded in
// BENCH_3.json.
func serveBench(cfg serveBenchConfig) error {
	if cfg.pool != "" {
		return servePoolBench(cfg)
	}
	spec, samples, batch, clients, delay := cfg.spec, cfg.samples, cfg.batch, cfg.clients, cfg.delay
	engine, err := backend.Open(spec)
	if err != nil {
		return err
	}
	baseline, err := backend.UnplannedTwin(engine)
	if err != nil {
		return err
	}

	net := nn.SmallCNN([2]int{8, 16}, 10, 7)
	rng := rand.New(rand.NewSource(21))
	xs := make([]*tensor.Tensor, samples)
	for i := range xs {
		xs[i] = tensor.New(3, 32, 32)
		xs[i].RandN(rng, 1)
	}
	fmt.Printf("serving %s (%d params) on engine %q (%s) — %d samples, micro-batch %d, %d clients\n",
		net.Name, net.NumParams(), engine.String(), engine.Name(), samples, batch, clients)

	throughput := func(label string, run func() error) (float64, error) {
		start := time.Now()
		if err := run(); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		sps := float64(samples) / elapsed.Seconds()
		fmt.Printf("%-24s %8.1f samples/sec  (%v total)\n", label, sps, elapsed.Round(time.Millisecond))
		return sps, nil
	}

	var base, compiled float64
	if cfg.failover == "" {
		net.SetConvEngine(baseline)
		base, err = throughput("uncompiled per-sample", func() error {
			for _, x := range xs {
				b, err := x.Reshape(1, 3, 32, 32)
				if err != nil {
					return err
				}
				if _, err := net.Forward(b); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		net.SetConvEngine(nil)
	}

	plan, err := net.Compile(engine)
	if err != nil {
		return err
	}
	if cfg.failover == "" {
		compiled, err = throughput("compiled per-sample", func() error {
			for _, x := range xs {
				b, err := x.Reshape(1, 3, 32, 32)
				if err != nil {
					return err
				}
				if _, err := plan.Forward(b); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	session, err := serve.New(plan, serve.Options{
		MaxBatch:     batch,
		MaxDelay:     delay,
		Retries:      cfg.retries,
		RetryBackoff: cfg.backoff,
		Failover:     cfg.failover,
	})
	if err != nil {
		return err
	}
	defer session.Close()
	ctx := context.Background()
	var failed atomic.Uint64
	shotRate := jtc.NewShotSampler()
	batched, err := throughput("batched session", func() error {
		var wg sync.WaitGroup
		per := (samples + clients - 1) / clients
		for c := 0; c < clients; c++ {
			lo, hi := c*per, min((c+1)*per, samples)
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					if _, err := session.Infer(ctx, xs[i]); err != nil {
						failed.Add(1)
					}
				}
			}(lo, hi)
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return err
	}
	if cfg.failover == "" {
		fmt.Printf("compiled speedup %.2fx, batched-session speedup %.2fx (%d micro-batches, mean width %.1f)\n",
			compiled/base, batched/base, session.Batches(),
			float64(session.Samples())/float64(max(session.Batches(), 1)))
	} else {
		fmt.Printf("%d micro-batches, mean width %.1f\n", session.Batches(),
			float64(session.Samples())/float64(max(session.Batches(), 1)))
	}
	if shots, perSec := shotRate.Sample(); shots > 0 {
		fmt.Printf("jtc shots: %d during batched session (%.0f shots/sec)\n", shots, perSec)
	}
	reportResilience(engine, session, int(failed.Load()), samples)
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("%d of %d requests failed", n, samples)
	}
	return nil
}

// servePoolBench runs the batched-session mode against a device pool: the
// pool shards each micro-batch by sample across its live devices, and the
// report adds the pool's scheduling counters plus one health row per device
// (state, faults, probes, readmits) — the chaos-smoke CI step greps these
// for the quarantined dead device. Per-sample baselines are skipped: they
// bench a single engine, which -engine already covers.
func servePoolBench(cfg serveBenchConfig) error {
	samples, batch, clients, delay := cfg.samples, cfg.batch, cfg.clients, cfg.delay
	net := nn.SmallCNN([2]int{8, 16}, 10, 7)
	p, err := pool.Open(net, cfg.pool)
	if err != nil {
		return err
	}
	defer p.Close()

	rng := rand.New(rand.NewSource(21))
	xs := make([]*tensor.Tensor, samples)
	for i := range xs {
		xs[i] = tensor.New(3, 32, 32)
		xs[i].RandN(rng, 1)
	}
	fmt.Printf("serving %s (%d params) on pool %q (%d devices) — %d samples, micro-batch %d, %d clients\n",
		net.Name, net.NumParams(), p.Spec(), p.Size(), samples, batch, clients)

	session, err := serve.NewExecutor(p, serve.Options{
		MaxBatch:     batch,
		MaxDelay:     delay,
		Retries:      cfg.retries,
		RetryBackoff: cfg.backoff,
		Failover:     cfg.failover,
	})
	if err != nil {
		return err
	}
	defer session.Close()

	ctx := context.Background()
	var failed atomic.Uint64
	shotRate := jtc.NewShotSampler()
	start := time.Now()
	var wg sync.WaitGroup
	per := (samples + clients - 1) / clients
	for c := 0; c < clients; c++ {
		lo, hi := c*per, min((c+1)*per, samples)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if _, err := session.Infer(ctx, xs[i]); err != nil {
					failed.Add(1)
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	fmt.Printf("%-24s %8.1f samples/sec  (%v total)\n", "pooled session",
		float64(samples)/elapsed.Seconds(), elapsed.Round(time.Millisecond))
	fmt.Printf("%d micro-batches, mean width %.1f\n", session.Batches(),
		float64(session.Samples())/float64(max(session.Batches(), 1)))
	if shots, perSec := shotRate.Sample(); shots > 0 {
		fmt.Printf("jtc shots: %d during pooled session (%.0f shots/sec)\n", shots, perSec)
	}

	h := session.Health()
	fmt.Printf("health: ready=%v breaker=%v eff-batch=%d retries=%d splits=%d failovers=%d trips=%d exhausted=%d\n",
		h.Ready, h.BreakerOpen, h.EffectiveMaxBatch,
		h.Retries, h.BatchSplits, h.Failovers, h.BreakerTrips, h.RecoveryExhausted)
	fmt.Printf("queue: depth=%d admitted=%d completed=%d shed=%d\n",
		h.QueueDepth, h.Admitted, h.Completed, h.Shed)
	c := p.Counters()
	fmt.Printf("pool: live=%d/%d requests=%d shards=%d quarantines=%d readmits=%d probes=%d exhausted=%d\n",
		p.Live(), p.Size(), c.Requests, c.Shards, c.Quarantines, c.Readmits, c.Probes, c.Exhausted)
	for _, row := range h.Devices {
		fmt.Printf("device %d: %-40s state=%-11s shards=%d samples=%d faults=%d probes=%d readmits=%d ewma=%v busy=%v%s\n",
			row.ID, row.Spec, row.State, row.Shards, row.Samples, row.Faults,
			row.Probes, row.Readmits, row.EWMALatency.Round(time.Microsecond),
			row.Busy.Round(time.Microsecond), lastErrSuffix(row.LastError))
	}
	fmt.Printf("failed requests: %d of %d\n", failed.Load(), samples)
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("%d of %d requests failed", n, samples)
	}
	return nil
}

func lastErrSuffix(s string) string {
	if s == "" {
		return ""
	}
	return " err=" + s
}

// reportResilience prints the session's recovery counters and, when the
// engine carries a fault injector, the substrate-level fault accounting.
func reportResilience(engine *backend.Engine, session *serve.Session, failed, total int) {
	h := session.Health()
	fmt.Printf("health: ready=%v breaker=%v eff-batch=%d retries=%d splits=%d failovers=%d trips=%d exhausted=%d\n",
		h.Ready, h.BreakerOpen, h.EffectiveMaxBatch,
		h.Retries, h.BatchSplits, h.Failovers, h.BreakerTrips, h.RecoveryExhausted)
	type faultCarrier interface{ FaultInjector() *fault.Injector }
	if fc, ok := engine.Unwrap().(faultCarrier); ok {
		if inj := fc.FaultInjector(); inj.Active() {
			c := inj.Counters()
			fmt.Printf("faults: shot=%d shot-retries=%d recalibrations=%d outages=%d dead-rows=%d\n",
				c.ShotFaults, c.ShotRetries, c.Recalibrations, c.Outages, len(inj.DeadSlots()))
		}
	}
	fmt.Printf("failed requests: %d of %d\n", failed, total)
}
