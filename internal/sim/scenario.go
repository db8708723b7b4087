// Scenarios: a Scenario is the complete, declarative input of one
// simulation run — traffic sources, fleet shape, cost model, policies, and
// the SLO the run is judged against. Named scenarios form the repo's
// standing experiment set; every field can be overridden before Run.
package sim

import (
	"fmt"
	"sort"
	"time"
)

// WorkerConfig is one simulated device's cost and fault model.
type WorkerConfig struct {
	// BatchBase is the fixed per-batch cost (weight latch + readout
	// overhead); PerSample the streaming cost per co-batched sample.
	BatchBase time.Duration
	PerSample time.Duration
	// FaultDetect is how long a faulted batch occupies the worker before
	// the failure surfaces (default: BatchBase).
	FaultDetect time.Duration
	// ShotsPerSample is the modeled JTC shot count per served sample;
	// ApertureUtil the aperture occupancy fraction while executing (both
	// feed the shots/s and aperture-utilization metrics).
	ShotsPerSample int64
	ApertureUtil   float64
	// Fault is an internal/fault spec ("outage:2500", "shot:0.35", "" for a
	// clean device); FaultSeed keys its draws (0: scenario FaultSeed +
	// worker index).
	Fault     string
	FaultSeed int64
}

// Burst is an extra Poisson source active only inside [Start, End) — the
// flash-crowd ingredient.
type Burst struct {
	Rate       float64
	Start, End time.Duration
}

// Scenario is one simulation run's full configuration.
type Scenario struct {
	Name string
	// Seed keys every agent's PCG stream; the run is a pure function of
	// (Scenario, Seed).
	Seed uint64
	// Duration is the virtual arrival horizon; in-flight work drains to
	// completion past it. Bucket is the metrics granularity. Day is the
	// diurnal period of tenant load curves (default: Duration).
	Duration time.Duration
	Bucket   time.Duration
	Day      time.Duration

	// MaxBatch is the per-worker micro-batch ceiling (default 8).
	MaxBatch int
	// QuarantineThreshold is how many consecutive faulted batches take a
	// worker out of rotation (default 2); ProbeInterval the canary cadence
	// for readmission (default 250ms); MaxAttempts the per-request
	// re-dispatch budget across faulted batches (default 4).
	QuarantineThreshold int
	ProbeInterval       time.Duration
	MaxAttempts         int
	// FaultSeed is the base seed for worker fault injectors (worker i
	// defaults to FaultSeed+i).
	FaultSeed int64

	// Admission/Batching/Routing select policies by spec string (see
	// policy.go: accept-all, token-bucket?rate=,burst= / fixed?delay=,
	// adaptive?base=,min=,max=,setpoint= / round-robin, least-loaded).
	Admission string
	Batching  string
	Routing   string

	// Workers is the fleet (at least one required).
	Workers []WorkerConfig

	// Traffic sources (any combination; at least one must be active):
	// PoissonRate is a flat open-loop baseline; Tenants diurnal
	// random-Fourier tenants at TenantPeak requests/second each (with
	// TenantHarmonics harmonics, default 4); Burst a windowed surge; Trace
	// a replayed arrival log.
	PoissonRate     float64
	Tenants         int
	TenantPeak      float64
	TenantHarmonics int
	Burst           *Burst
	Trace           []TraceArrival

	// SLOP99 is the run's p99 latency ceiling (default 250ms).
	SLOP99 time.Duration
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Bucket <= 0 {
		sc.Bucket = 5 * time.Second
	}
	if sc.Day <= 0 {
		sc.Day = sc.Duration
	}
	if sc.MaxBatch < 1 {
		sc.MaxBatch = 8
	}
	if sc.QuarantineThreshold < 1 {
		sc.QuarantineThreshold = 2
	}
	if sc.ProbeInterval <= 0 {
		sc.ProbeInterval = 250 * time.Millisecond
	}
	if sc.MaxAttempts < 1 {
		sc.MaxAttempts = 4
	}
	if sc.TenantHarmonics < 1 {
		sc.TenantHarmonics = 4
	}
	if sc.Admission == "" {
		sc.Admission = "accept-all"
	}
	if sc.Batching == "" {
		sc.Batching = "fixed?delay=2ms"
	}
	if sc.Routing == "" {
		sc.Routing = "least-loaded"
	}
	if sc.SLOP99 <= 0 {
		sc.SLOP99 = 250 * time.Millisecond
	}
	for i := range sc.Workers {
		w := &sc.Workers[i]
		if w.FaultDetect <= 0 {
			w.FaultDetect = w.BatchBase
		}
	}
	return sc
}

func (sc Scenario) validate() error {
	if sc.Duration <= 0 {
		return fmt.Errorf("sim: scenario %q: Duration must be > 0", sc.Name)
	}
	if len(sc.Workers) == 0 {
		return fmt.Errorf("sim: scenario %q: needs at least one worker", sc.Name)
	}
	for i, w := range sc.Workers {
		if w.BatchBase < 0 || w.PerSample < 0 || w.BatchBase+w.PerSample <= 0 {
			return fmt.Errorf("sim: scenario %q: worker %d needs a positive service cost", sc.Name, i)
		}
		if w.ApertureUtil < 0 || w.ApertureUtil > 1 {
			return fmt.Errorf("sim: scenario %q: worker %d ApertureUtil %g outside [0,1]", sc.Name, i, w.ApertureUtil)
		}
		if w.ShotsPerSample < 0 {
			return fmt.Errorf("sim: scenario %q: worker %d ShotsPerSample must be >= 0", sc.Name, i)
		}
	}
	return nil
}

// defaultWorker is the reference device cost model. Its costs are hand-set,
// not calibrated: 2ms batch overhead + 0.5ms per streamed sample, 620
// modeled shots/sample, and the packed aperture fill the calibrate CLI
// reports for 32x32 inputs. CalibrateWorkers on BENCH_8 and BENCH_5 gives
// 0.31ms + 3.79ms per sample, on which device-outage misses its SLO.
func defaultWorker() WorkerConfig {
	return WorkerConfig{
		BatchBase:      2 * time.Millisecond,
		PerSample:      500 * time.Microsecond,
		ShotsPerSample: 620,
		ApertureUtil:   0.61,
	}
}

// homogeneousFleet replicates the reference worker n times.
func homogeneousFleet(n int) []WorkerConfig {
	ws := make([]WorkerConfig, n)
	for i := range ws {
		ws[i] = defaultWorker()
	}
	return ws
}

// scenarioBuilders maps scenario names to constructors; Named/Names read
// it. Registration order is irrelevant — Names sorts.
var scenarioBuilders = map[string]func() Scenario{
	// steady: flat Poisson load at ~45% fleet capacity, the calibration
	// baseline every policy change can be diffed against.
	"steady": func() Scenario {
		return Scenario{
			Name:        "steady",
			Seed:        1,
			Duration:    60 * time.Second,
			Bucket:      2 * time.Second,
			Workers:     homogeneousFleet(2),
			PoissonRate: 1200,
			Batching:    "fixed?delay=2ms",
			Routing:     "round-robin",
			SLOP99:      50 * time.Millisecond,
		}
	},
	// diurnal-peak: 32 random-Fourier tenants sweep one compressed day;
	// adaptive batching and health-weighted routing ride the swell.
	"diurnal-peak": func() Scenario {
		return Scenario{
			Name:       "diurnal-peak",
			Seed:       2,
			Duration:   120 * time.Second,
			Bucket:     5 * time.Second,
			Workers:    homogeneousFleet(4),
			Tenants:    32,
			TenantPeak: 60,
			Batching:   "adaptive?base=2ms,min=250us,max=8ms,setpoint=6",
			Routing:    "least-loaded",
			SLOP99:     100 * time.Millisecond,
		}
	},
	// flash-crowd: a 10-second surge at 2.5x steady load; the token bucket
	// sheds the excess instead of letting the queue (and p99) run away.
	"flash-crowd": func() Scenario {
		return Scenario{
			Name:        "flash-crowd",
			Seed:        3,
			Duration:    60 * time.Second,
			Bucket:      2 * time.Second,
			Workers:     homogeneousFleet(2),
			PoissonRate: 800,
			Burst:       &Burst{Rate: 4000, Start: 20 * time.Second, End: 30 * time.Second},
			Admission:   "token-bucket?rate=2200,burst=500",
			Batching:    "fixed?delay=2ms",
			Routing:     "least-loaded",
			SLOP99:      100 * time.Millisecond,
		}
	},
	// device-outage: the headline chaos scenario — a 4-device pool under 32
	// diurnal tenants, with one device going into permanent outage mid-run
	// (fault spec outage:CALL). The fleet must quarantine the casualty,
	// re-route its queue, and keep completing every admitted request inside
	// the SLO.
	"device-outage": func() Scenario {
		sc := Scenario{
			Name:                "device-outage",
			Seed:                9,
			Duration:            120 * time.Second,
			Bucket:              5 * time.Second,
			Workers:             homogeneousFleet(4),
			Tenants:             32,
			TenantPeak:          60,
			QuarantineThreshold: 1,
			ProbeInterval:       500 * time.Millisecond,
			Batching:            "adaptive?base=2ms,min=250us,max=8ms,setpoint=6",
			Routing:             "least-loaded",
			SLOP99:              250 * time.Millisecond,
			FaultSeed:           9,
		}
		sc.Workers[3].Fault = "outage:5500"
		return sc
	},
	// flaky-device: one of two devices misfires 35% of its batches —
	// enough to bounce through quarantine and be readmitted by probes,
	// exercising the full health ladder both ways.
	"flaky-device": func() Scenario {
		sc := Scenario{
			Name:                "flaky-device",
			Seed:                5,
			Duration:            60 * time.Second,
			Bucket:              2 * time.Second,
			Workers:             homogeneousFleet(2),
			PoissonRate:         900,
			QuarantineThreshold: 3,
			ProbeInterval:       200 * time.Millisecond,
			Routing:             "least-loaded",
			SLOP99:              100 * time.Millisecond,
			FaultSeed:           5,
		}
		sc.Workers[1].Fault = "shot:0.35"
		return sc
	},
}

// Names lists the named scenarios, sorted.
func Names() []string {
	names := make([]string, 0, len(scenarioBuilders))
	for n := range scenarioBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Named returns a fresh copy of a named scenario.
func Named(name string) (Scenario, error) {
	b, ok := scenarioBuilders[name]
	if !ok {
		return Scenario{}, fmt.Errorf("sim: unknown scenario %q (have %v)", name, Names())
	}
	return b(), nil
}
