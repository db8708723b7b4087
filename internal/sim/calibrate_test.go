package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func writeSnap(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Layout of BENCH_8: forward_batch with shots_per_sample rows. Costs are
// chosen so the derivation is exact: per = (b32-b8)/24, base = b1 - per.
const bench8Like = `{
  "id": "BENCH_8",
  "forward_batch": {
    "netA": {
      "batch1": {"ns_per_op": 3000000, "shots_per_sample": 1000},
      "batch8": {"ns_per_op": 10000000, "shots_per_sample": 900},
      "batch32": {"ns_per_op": 34000000, "shots_per_sample": 890}
    }
  }
}`

// Layout of BENCH_5: no shots in forward_batch rows. Its packed shots live
// in a sibling tiled_packed_shots table, which calibration does not read.
const bench5Like = `{
  "id": "BENCH_5",
  "forward_batch": {
    "netA": {
      "batch1": {"ns_per_op": 1000000},
      "batch8": {"ns_per_op": 4000000},
      "batch32": {"ns_per_op": 16000000}
    }
  },
  "tiled_packed_shots": {
    "netA": {"batch8_shots_per_sample": 500}
  }
}`

// Layout of BENCH_3: single forward table, batch 1 and 8 only. It holds no
// forward_batch table, so calibration rejects it.
const bench3Like = `{
  "id": "BENCH_3",
  "forward": {
    "compiled_per_sample": {"ns_per_op": 1100000},
    "compiled_batch8": {"ns_per_op": 8100000}
  }
}`

func TestCalibrateWorkersBench8Layout(t *testing.T) {
	path := writeSnap(t, "b8.json", bench8Like)
	cal, err := CalibrateWorkers(path)
	if err != nil {
		t.Fatal(err)
	}
	// per = (34e6-10e6)/24 = 1e6; base = 3e6 - 1e6 = 2e6; shots from batch8.
	if cal.PerSample != time.Millisecond {
		t.Errorf("PerSample %v, want 1ms", cal.PerSample)
	}
	if cal.BatchBase != 2*time.Millisecond {
		t.Errorf("BatchBase %v, want 2ms", cal.BatchBase)
	}
	if cal.ShotsPerSample != 900 {
		t.Errorf("ShotsPerSample %d, want 900", cal.ShotsPerSample)
	}
	if len(cal.Sources) != 1 {
		t.Errorf("sources %v, want one", cal.Sources)
	}
}

func TestCalibrateWorkersAveragesAcrossSnapshots(t *testing.T) {
	p8 := writeSnap(t, "b8.json", bench8Like)
	p5 := writeSnap(t, "b5.json", bench5Like)
	cal, err := CalibrateWorkers(p8, p5)
	if err != nil {
		t.Fatal(err)
	}
	// b8: base 2e6, per 1e6; b5: per (16e6-4e6)/24=0.5e6, base 0.5e6.
	// Averages: base 1.25 ms, per 0.75 ms. Shots come from b8 alone.
	if want := 1250 * time.Microsecond; cal.BatchBase != want {
		t.Errorf("BatchBase %v, want %v", cal.BatchBase, want)
	}
	if want := 750 * time.Microsecond; cal.PerSample != want {
		t.Errorf("PerSample %v, want %v", cal.PerSample, want)
	}
	if cal.ShotsPerSample != 900 {
		t.Errorf("ShotsPerSample %d, want 900", cal.ShotsPerSample)
	}
	if len(cal.Sources) != 2 {
		t.Errorf("sources %v, want two", cal.Sources)
	}
}

// TestCalibrateWorkersSourceOrder: a snapshot's nets fold in sorted name
// order, so repeated calibrations list the same sorted Sources and give
// the same costs.
func TestCalibrateWorkersSourceOrder(t *testing.T) {
	const row = `{"batch1": {"ns_per_op": %d}, "batch8": {"ns_per_op": %d}, "batch32": {"ns_per_op": %d}}`
	body := `{"forward_batch": {`
	for i, net := range []string{"delta", "alpha", "charlie", "bravo"} {
		if i > 0 {
			body += ","
		}
		body += fmt.Sprintf(`"%s": `+row, net, 1000003*(i+1), 4000037*(i+1), 16000033*(i+2))
	}
	path := writeSnap(t, "nets.json", body+`}}`)
	want := []string{path + ":alpha", path + ":bravo", path + ":charlie", path + ":delta"}
	first, err := CalibrateWorkers(path)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 20; run++ {
		cal, err := CalibrateWorkers(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cal.Sources, want) {
			t.Fatalf("run %d: sources %v, want %v", run, cal.Sources, want)
		}
		if cal.BatchBase != first.BatchBase || cal.PerSample != first.PerSample {
			t.Fatalf("run %d: costs %v + %v per sample, first run %v + %v", run, cal.BatchBase, cal.PerSample, first.BatchBase, first.PerSample)
		}
	}
}

func TestCalibrateWorkersRealSnapshots(t *testing.T) {
	// The repository's committed snapshots must calibrate to a usable
	// (validate-clean) worker; guards the parser against layout drift.
	var paths []string
	for _, name := range []string{"BENCH_8.json", "BENCH_5.json"} {
		p := filepath.Join("..", "..", name)
		if _, err := os.Stat(p); err == nil {
			paths = append(paths, p)
		}
	}
	if len(paths) == 0 {
		t.Skip("no committed BENCH snapshots")
	}
	cal, err := CalibrateWorkers(paths...)
	if err != nil {
		t.Fatal(err)
	}
	w := cal.Apply(defaultWorker())
	if w.BatchBase+w.PerSample <= 0 {
		t.Fatalf("calibrated costs unusable: %+v", w)
	}
	if w.ShotsPerSample <= 0 {
		t.Fatalf("calibrated shots unusable: %+v", w)
	}
	sc := Scenario{Name: "cal", Duration: time.Second, PoissonRate: 1, Workers: []WorkerConfig{w}}
	if err := sc.withDefaults().validate(); err != nil {
		t.Fatalf("calibrated scenario invalid: %v", err)
	}
}

func TestCalibrateWorkersErrors(t *testing.T) {
	if _, err := CalibrateWorkers(); err == nil {
		t.Fatal("zero paths must fail")
	}
	bad := writeSnap(t, "bad.json", `{"id": "X"}`)
	if _, err := CalibrateWorkers(bad); err == nil {
		t.Fatal("snapshot without cost tables must fail")
	}
	old := writeSnap(t, "b3.json", bench3Like)
	if _, err := CalibrateWorkers(old); err == nil {
		t.Fatal("BENCH_3 layout (no forward_batch table) must fail")
	}
}

func TestCalibrationApplyPreservesFaultModel(t *testing.T) {
	cal := Calibration{BatchBase: time.Millisecond, PerSample: time.Microsecond, ShotsPerSample: 123}
	w := cal.Apply(WorkerConfig{Fault: "outage:9", FaultSeed: 4, ApertureUtil: 0.5, FaultDetect: time.Second})
	if w.Fault != "outage:9" || w.FaultSeed != 4 || w.ApertureUtil != 0.5 || w.FaultDetect != time.Second {
		t.Fatalf("Apply clobbered non-cost fields: %+v", w)
	}
	if w.BatchBase != time.Millisecond || w.PerSample != time.Microsecond || w.ShotsPerSample != 123 {
		t.Fatalf("Apply missed cost fields: %+v", w)
	}
}
