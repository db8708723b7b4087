// Worker cost-model calibration from the repository's measured BENCH
// snapshots, replacing the hand-tuned defaultWorker constants with
// numbers derived from real runs on the recording host.
//
// The cost model is BatchBase + n*PerSample per batch of n samples. A
// snapshot's forward_batch table gives ns_per_op at batches {1, 8, 32},
// which over-determines the two parameters: the per-sample slope comes
// from the widest pair (batch 32 vs 8, the steady-state streaming cost,
// clear of the batch-1 fixed costs), and the base is what batch 1 cost
// beyond one sample. ShotsPerSample comes from the batch8 row's packed
// shot count where the snapshot records one (the co-batching regime the
// simulator spends its time in).
// Multiple snapshots/nets average — the simulator models a generic
// device, not one network.
package sim

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"time"
)

// Calibration is the result of deriving worker costs from BENCH
// snapshots, with provenance for reporting.
type Calibration struct {
	BatchBase      time.Duration
	PerSample      time.Duration
	ShotsPerSample int64
	// Sources lists the "file:net" tables the averages folded in.
	Sources []string
}

// Apply overwrites the calibrated fields of one WorkerConfig, leaving its
// fault spec, seed, aperture model, and any explicit FaultDetect alone.
func (c Calibration) Apply(w WorkerConfig) WorkerConfig {
	w.BatchBase = c.BatchBase
	w.PerSample = c.PerSample
	if c.ShotsPerSample > 0 {
		w.ShotsPerSample = c.ShotsPerSample
	}
	return w
}

// CalibrateWorkers parses BENCH snapshot JSON files and averages every
// cost table they contain. Each file must hold a forward_batch table
// (BENCH_8 and BENCH_5 do); at least one usable table is required.
func CalibrateWorkers(paths ...string) (Calibration, error) {
	var cal Calibration
	var baseSum, perSum float64
	var shotSum float64
	shotN := 0
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return cal, fmt.Errorf("sim: calibrate: %w", err)
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			return cal, fmt.Errorf("sim: calibrate %s: %w", path, err)
		}
		tables, err := costTables(doc)
		if err != nil {
			return cal, fmt.Errorf("sim: calibrate %s: %w", path, err)
		}
		for _, tb := range tables {
			baseSum += tb.base
			perSum += tb.per
			if tb.shots > 0 {
				shotSum += tb.shots
				shotN++
			}
			cal.Sources = append(cal.Sources, fmt.Sprintf("%s:%s", path, tb.name))
		}
	}
	n := float64(len(cal.Sources))
	if n == 0 {
		return cal, fmt.Errorf("sim: calibrate: no usable cost tables in %v", paths)
	}
	cal.BatchBase = time.Duration(baseSum / n)
	cal.PerSample = time.Duration(perSum / n)
	if cal.PerSample < 0 {
		cal.PerSample = 0
	}
	if cal.BatchBase <= 0 {
		// The model needs a positive service time; fold any negative base
		// back into a pure streaming cost.
		cal.BatchBase = time.Duration(perSum / n)
	}
	if shotN > 0 {
		cal.ShotsPerSample = int64(shotSum / float64(shotN))
	}
	return cal, nil
}

type costTable struct {
	name      string
	base, per float64 // nanoseconds
	shots     float64 // per sample at batch 8 (0: not recorded)
}

// costTables extracts every per-net cost table of a snapshot's
// forward_batch.{net}.batch{1,8,32} rows; a batch8 row's optional
// shots_per_sample gives the net's shots.
func costTables(doc map[string]any) ([]costTable, error) {
	fb, ok := doc["forward_batch"].(map[string]any)
	if !ok {
		return nil, fmt.Errorf("no forward_batch cost table")
	}
	var out []costTable
	// Sorted net names fix the order of Sources and of the float sums.
	for _, net := range slices.Sorted(maps.Keys(fb)) {
		tb, ok := fb[net].(map[string]any)
		if !ok {
			continue
		}
		b1, ok1 := rowNs(tb, "batch1")
		b8, ok8 := rowNs(tb, "batch8")
		b32, ok32 := rowNs(tb, "batch32")
		if !ok1 || !ok8 || !ok32 {
			continue
		}
		per := (b32 - b8) / 24
		if per < 0 {
			per = 0
		}
		base := b1 - per
		if base < 0 {
			base = 0
		}
		row8, _ := tb["batch8"].(map[string]any)
		shots, _ := num(row8, "shots_per_sample")
		out = append(out, costTable{name: net, base: base, per: per, shots: shots})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("forward_batch holds no complete batch{1,8,32} tables")
	}
	return out, nil
}

func rowNs(tb map[string]any, key string) (float64, bool) {
	row, ok := tb[key].(map[string]any)
	if !ok {
		return 0, false
	}
	return num(row, "ns_per_op")
}

func num(m map[string]any, key string) (float64, bool) {
	v, ok := m[key].(float64)
	return v, ok
}
