package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary serve as its own set-up child process, as
// the benchmark binary does.
func TestMain(m *testing.M) {
	if probe := os.Getenv(setupEnv); probe != "" {
		os.Exit(setupChild(probe))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	perLayer, err := perLayerNames()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		json []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
		want []metricName
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.json) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d: %v", c.what, len(c.json), len(c.want), c.want)
			continue
		}
		for i, m := range c.json {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", c.what, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

// tinyConfig runs a workload for a fraction of a second.
func tinyConfig(t *testing.T, w workload, trace bool) config {
	return config{
		w:             w,
		seed:          3,
		duration:      600 * time.Millisecond,
		trace:         trace,
		setupRuns:     1,
		traceDir:      t.TempDir(),
		refWeightSeed: weightSeed,
	}
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	perLayer, err := perLayerNames()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(tinyConfig(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var printed map[string]json.RawMessage
			if err := json.Unmarshal(line, &printed); err != nil {
				t.Fatal(err)
			}
			if len(printed) != 4 || printed["correct"] == nil || printed["attempted"] == nil || printed["failed"] == nil || printed["metrics"] == nil {
				t.Fatalf("%s: result line %s does not have exactly correct/attempted/failed/metrics", w.name, line)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.name, got, m.unit)
				}
				if !trace && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w.name, m.name)
				}
			}
		}
	}
}

func TestReferenceOfOtherWeightsFailsRun(t *testing.T) {
	w, err := findWorkload("serve-direct")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(t, w, false)
	cfg.refWeightSeed = weightSeed + 1
	res, err := run(cfg)
	if err == nil {
		t.Fatal("run against a reference of other weights succeeded")
	}
	if res == nil || res.Correct || res.Failed != res.Attempted || res.Attempted < 1 {
		t.Fatalf("result %+v: want every attempted row failed", res)
	}
}
