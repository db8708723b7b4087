package core

import (
	"errors"
	"testing"

	"photofourier/internal/fault"
	"photofourier/internal/jtc"
	"photofourier/internal/tensor"
)

// faultEngine builds the default accelerator operating point with a parsed
// fault injector armed.
func faultEngine(t *testing.T, spec string, seed int64) *Engine {
	t.Helper()
	inj, err := fault.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	e.NTA = 4
	e.NConv = 64
	e.Faults = inj
	return e
}

func faultConvOperands() (*tensor.Tensor, *tensor.Tensor, []float64) {
	in := tensor.New(1, 3, 8, 8)
	w := tensor.New(2, 3, 3, 3)
	fillDeterministic(in, 89, 0.35)
	fillDeterministic(w, 37, 0.4)
	return in, w, []float64{0.1, -0.2}
}

// TestZeroRateInjectorBitIdentity: an armed injector with every rate at
// zero does no floating-point work, so results stay bit-identical to no
// injector at all — the contract that keeps golden matrices valid.
func TestZeroRateInjectorBitIdentity(t *testing.T) {
	in, w, bias := faultConvOperands()
	for _, tiled := range []bool{false, true} {
		clean := faultEngine(t, "", 0)
		zero := faultEngine(t, "shot:0;drift:0", 7)
		clean.UseTiledPath, zero.UseTiledPath = tiled, tiled
		if zero.Faults == nil || zero.Faults.Active() {
			t.Fatal("zero-rate injector should parse armed but inactive")
		}
		want, err := clean.Conv2D(in, w, bias, 1, tensor.Same)
		if err != nil {
			t.Fatal(err)
		}
		got, err := zero.Conv2D(in, w, bias, 1, tensor.Same)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, want, got, "zero-rate injector")
	}
}

// TestShotFaultsRecoverBitIdentical: transient shot misfires are detected
// by the per-shot guard and re-read, so results match the clean engine
// exactly while the injector's fault accounting and the global shot
// counter record the recovery work.
func TestShotFaultsRecoverBitIdentical(t *testing.T) {
	in, w, bias := faultConvOperands()
	clean := faultEngine(t, "", 0)
	faulty := faultEngine(t, "shot:0.1", 13)
	shots0 := jtc.RetriedShots()
	for call := 0; call < 20; call++ {
		want, err := clean.Conv2D(in, w, bias, 1, tensor.Same)
		if err != nil {
			t.Fatal(err)
		}
		got, err := faulty.Conv2D(in, w, bias, 1, tensor.Same)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, want, got, "shot faults")
	}
	c := faulty.Faults.Counters()
	if c.ShotFaults == 0 {
		t.Fatal("rate 0.1 over 20 convs produced no shot faults")
	}
	if c.ShotRetries == 0 {
		t.Fatal("detected misfires must be retried")
	}
	if d := jtc.RetriedShots() - shots0; d != int64(c.ShotRetries) {
		t.Fatalf("global retried-shot delta %d != injector counter %d", d, c.ShotRetries)
	}
}

// TestShotRetryExhaustion: a device that misfires on every attempt burns
// its retry budget and surfaces ErrDeviceFault, on the unplanned engine
// call and on the planned layer alike — 3 faults and 2 retries for a
// budget of 2.
func TestShotRetryExhaustion(t *testing.T) {
	in, w, bias := faultConvOperands()
	for _, planned := range []bool{false, true} {
		e := faultEngine(t, "shot:1;retries:2", 3)
		var err error
		if planned {
			plan, perr := e.PlanConv(w, bias, 1, tensor.Same)
			if perr != nil {
				t.Fatal(perr)
			}
			_, err = plan.Conv2D(in)
		} else {
			_, err = e.Conv2D(in, w, bias, 1, tensor.Same)
		}
		if !errors.Is(err, ErrDeviceFault) {
			t.Fatalf("planned=%v: err %v, want ErrDeviceFault after an exhausted budget", planned, err)
		}
		if c := e.Faults.Counters(); c.ShotFaults != 3 || c.ShotRetries != 2 {
			t.Fatalf("planned=%v: counters %+v, want 3 faults / 2 retries for budget 2", planned, c)
		}
	}
}

// TestShotFaultsPlannedMatchesUnplanned: the fault draw is keyed by call
// coordinates, not execution path, so the planned path under faults stays
// bit-identical to the unplanned path under the same injector config.
func TestShotFaultsPlannedMatchesUnplanned(t *testing.T) {
	in, w, bias := faultConvOperands()
	unplanned := faultEngine(t, "shot:0.1", 13)
	planned := faultEngine(t, "shot:0.1", 13)
	plan, err := planned.PlanConv(w, bias, 1, tensor.Same)
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 20; call++ {
		want, err := unplanned.Conv2D(in, w, bias, 1, tensor.Same)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Conv2D(in)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, want, got, "planned vs unplanned under shot faults")
	}
	if c := planned.Faults.Counters(); c.ShotFaults == 0 {
		t.Fatal("planned path drew no shot faults over 20 calls")
	}
}

// TestDriftBoundedAndRecalibrated: residual laser drift perturbs results
// only between calibration probes — the error stays small and the probe
// crossings are counted as recalibrations.
func TestDriftBoundedAndRecalibrated(t *testing.T) {
	in, w, bias := faultConvOperands()
	clean := faultEngine(t, "", 0)
	drifty := faultEngine(t, "drift:1e-3;probe:2", 1)
	var maxDiff, scale float64
	for call := 0; call < 6; call++ {
		want, err := clean.Conv2D(in, w, bias, 1, tensor.Same)
		if err != nil {
			t.Fatal(err)
		}
		got, err := drifty.Conv2D(in, w, bias, 1, tensor.Same)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got.Data {
			d, ref := v-want.Data[i], want.Data[i]
			if d < 0 {
				d = -d
			}
			if ref < 0 {
				ref = -ref
			}
			if d > maxDiff {
				maxDiff = d
			}
			if ref > scale {
				scale = ref
			}
		}
	}
	// The residual gain never exceeds 1 + rate*(probe-1); a probe interval
	// of 2 keeps the normalized error tiny (quantization can still move a
	// readout by a few code steps).
	if scale == 0 || maxDiff/scale > 0.05 {
		t.Fatalf("residual drift error %.3g (scale %.3g) too large for rate 1e-3 with probe 2", maxDiff, scale)
	}
	if c := drifty.Faults.Counters(); c.Recalibrations == 0 {
		t.Fatalf("6 calls at probe interval 2 crossed no probe: %+v", c)
	}
}

// TestOutage: from OutageAt on, every path refuses with ErrDeviceFault —
// matched through the core re-export — and counts the refusal.
func TestOutage(t *testing.T) {
	in, w, bias := faultConvOperands()
	e := faultEngine(t, "outage:2", 1)
	if _, err := e.Conv2D(in, w, bias, 1, tensor.Same); err != nil {
		t.Fatalf("call 1 before outage: %v", err)
	}
	_, err := e.Conv2D(in, w, bias, 1, tensor.Same)
	if !errors.Is(err, ErrDeviceFault) {
		t.Fatalf("call 2: err %v, want ErrDeviceFault", err)
	}
	if !errors.Is(err, fault.ErrDeviceFault) {
		t.Fatal("core.ErrDeviceFault must alias fault.ErrDeviceFault")
	}

	planned := faultEngine(t, "outage:2", 1)
	plan, err := planned.PlanConv(w, bias, 1, tensor.Same)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Conv2D(in); err != nil {
		t.Fatalf("planned call 1 before outage: %v", err)
	}
	if _, err := plan.Conv2D(in); !errors.Is(err, ErrDeviceFault) {
		t.Fatalf("planned call 2: err %v, want ErrDeviceFault", err)
	}
	batch, err := in.Reshape(1, 3, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	lp := plan.(*LayerPlan)
	if _, err := lp.ForwardBatchCalls(batch, lp.ReserveCalls(1), 1); !errors.Is(err, ErrDeviceFault) {
		t.Fatalf("batch path after outage: %v, want ErrDeviceFault", err)
	}
	if c := planned.Faults.Counters(); c.Outages == 0 {
		t.Fatal("refused calls must count as outages")
	}
}

// TestStuckBitsDeterministic: a stuck ADC bit perturbs results away from
// the clean engine, identically across runs (same seed, same call
// sequence).
func TestStuckBitsDeterministic(t *testing.T) {
	in, w, bias := faultConvOperands()
	clean := faultEngine(t, "", 0)
	want, err := clean.Conv2D(in, w, bias, 1, tensor.Same)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]*tensor.Tensor, 2)
	for i := range outs {
		stuck := faultEngine(t, "stuckbit:6", 1)
		if outs[i], err = stuck.Conv2D(in, w, bias, 1, tensor.Same); err != nil {
			t.Fatal(err)
		}
	}
	assertBitIdentical(t, outs[0], outs[1], "stuck-bit repeatability")
	same := true
	for i := range want.Data {
		if want.Data[i] != outs[0].Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("stuck bit 6 left every readout untouched")
	}
}

// TestDeadRowQuarantineBitIdentical: quarantining aperture slots changes
// only the shot schedule (the packer routes around dead slots), never the
// numerics — outputs stay bit-identical and the shot count does not drop.
func TestDeadRowQuarantineBitIdentical(t *testing.T) {
	in, w, bias := faultConvOperands()
	run := func(spec string) (*tensor.Tensor, int64) {
		e := faultEngine(t, spec, 1)
		e.UseTiledPath = true
		e.NConv = 256 // room to schedule around quarantined slots
		plan, err := e.PlanConv(w, bias, 1, tensor.Same)
		if err != nil {
			t.Fatal(err)
		}
		shots0 := jtc.Shots()
		out, err := plan.Conv2D(in)
		if err != nil {
			t.Fatal(err)
		}
		return out, jtc.Shots() - shots0
	}
	want, cleanShots := run("")
	got, deadShots := run("deadrow:1;deadrow:2")
	assertBitIdentical(t, want, got, "dead-row quarantine")
	if deadShots < cleanShots {
		t.Fatalf("quarantined aperture fired fewer shots (%d) than healthy (%d)", deadShots, cleanShots)
	}
}
