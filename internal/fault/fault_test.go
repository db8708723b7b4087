package fault

import (
	"errors"
	"math"
	"slices"
	"testing"
)

func TestParseSpec(t *testing.T) {
	inj, err := Parse("shot:1e-3;drift:5e-5;probe:16;retries:5;stuckbit:0;stuckbit:3;deadrow:7;deadrow:2;deadrow:7;outage:40", 9)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Seed != 9 || inj.ShotRate != 1e-3 || inj.DriftRate != 5e-5 {
		t.Fatalf("rates: %+v", inj)
	}
	if inj.ProbeInterval != 16 || inj.MaxShotRetries != 5 {
		t.Fatalf("probe/retries: %+v", inj)
	}
	if inj.StuckBits != 0b1001 {
		t.Fatalf("stuck bits %b", inj.StuckBits)
	}
	if got := inj.DeadSlots(); len(got) != 2 || got[0] != 2 || got[1] != 7 {
		t.Fatalf("dead slots %v (want sorted dedup [2 7])", got)
	}
	if inj.OutageAt != 40 {
		t.Fatalf("outage %d", inj.OutageAt)
	}
	if !inj.Active() {
		t.Fatal("configured injector should be Active")
	}
}

func TestParseEmptyAndNone(t *testing.T) {
	for _, spec := range []string{"", "none", "  "} {
		inj, err := Parse(spec, 1)
		if err != nil || inj != nil {
			t.Fatalf("Parse(%q) = %v, %v; want nil, nil", spec, inj, err)
		}
	}
	var nilInj *Injector
	if nilInj.Active() {
		t.Fatal("nil injector must not be Active")
	}
	if nilInj.DeadSlots() != nil {
		t.Fatal("nil injector DeadSlots must be nil")
	}
	if c := nilInj.Counters(); c != (Counters{}) {
		t.Fatalf("nil injector counters %+v", c)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"shot",            // no param
		"shot:",           // empty param
		":1e-3",           // empty mode
		"shot:2",          // rate > 1
		"shot:-0.1",       // negative rate
		"drift:nan",       // NaN rate
		"probe:0",         // probe must be >= 1
		"probe:-3",        // negative
		"retries:-1",      // negative
		"stuckbit:32",     // out of [0,31]
		"deadrow:-2",      // negative slot
		"outage:0",        // calls are 1-based
		"laser:0.1",       // unknown mode
		"shot:1e-3;;",     // empty entry
		"shot:1e-3,drift", // ',' is the engine-spec separator, not valid here
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 0); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
}

// TestDrawDeterminism: draws are a pure function of (seed, coordinates) —
// identical across repeats, decorrelated across seeds and attempts.
func TestDrawDeterminism(t *testing.T) {
	inj, err := Parse("shot:0.2", 7)
	if err != nil {
		t.Fatal(err)
	}
	inj2, _ := Parse("shot:0.2", 7)
	other, _ := Parse("shot:0.2", 8)
	faults, diffSeed, diffAttempt := 0, 0, 0
	for call := uint64(1); call <= 2000; call++ {
		k1, hit1 := inj.DrawShotFault(call, 1, 2, 0)
		k2, hit2 := inj2.DrawShotFault(call, 1, 2, 0)
		if hit1 != hit2 || k1 != k2 {
			t.Fatalf("call %d: same seed diverged", call)
		}
		if hit1 {
			faults++
			if s1, s2 := inj.CorruptSeed(call, 1, 2, 0), inj2.CorruptSeed(call, 1, 2, 0); s1 != s2 {
				t.Fatalf("call %d: corrupt seed diverged", call)
			}
		}
		_, hitOther := other.DrawShotFault(call, 1, 2, 0)
		if hit1 != hitOther {
			diffSeed++
		}
		_, hitRetry := inj.DrawShotFault(call, 1, 2, 1)
		if hit1 != hitRetry {
			diffAttempt++
		}
	}
	// 0.2 rate over 2000 draws: expect ~400 faults and decorrelation across
	// both seed and attempt; loose bounds keep the test robust.
	if faults < 250 || faults > 550 {
		t.Fatalf("fault count %d implausible for rate 0.2 over 2000 draws", faults)
	}
	if diffSeed == 0 || diffAttempt == 0 {
		t.Fatalf("draws not decorrelated: seed diff %d, attempt diff %d", diffSeed, diffAttempt)
	}
}

func TestResidualGainEpochs(t *testing.T) {
	inj, err := Parse("drift:1e-3;probe:10", 1)
	if err != nil {
		t.Fatal(err)
	}
	if g := inj.ResidualGain(0); g != 1 {
		t.Fatalf("gain at probe call: %g", g)
	}
	if g := inj.ResidualGain(7); g != 1+7e-3 {
		t.Fatalf("gain 7 calls past probe: %g", g)
	}
	// Re-references at each probe: call 23 is 3 past the epoch at 20.
	if g := inj.ResidualGain(23); g != 1+3e-3 {
		t.Fatalf("gain after recalibration: %g", g)
	}
	if c := inj.Counters(); c.Recalibrations != 2 {
		t.Fatalf("recalibrations %d, want 2 (epoch 20 / probe 10)", c.Recalibrations)
	}
	// Stateless: out-of-order queries reproduce earlier answers.
	if g := inj.ResidualGain(7); g != 1+7e-3 {
		t.Fatalf("out-of-order gain: %g", g)
	}
}

func TestDown(t *testing.T) {
	inj, err := Parse("outage:5", 1)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Down(4) {
		t.Fatal("down before OutageAt")
	}
	if !inj.Down(5) || !inj.Down(100) {
		t.Fatal("outage must be permanent from OutageAt on")
	}
}

// TestGuardCatchesEveryCorruption: for each corruption kind, either
// GuardPlane flags the corrupted plane or the corruption was
// value-preserving — the no-silent-wrong-answers contract.
func TestGuardCatchesEveryCorruption(t *testing.T) {
	clean := []float64{0.5, -1.25, 0, 2.0, -0.75, 0.1}
	maxAbs, energy := PlaneStats(clean)
	bound := 2*maxAbs + 1
	for kind := Kind(0); kind < numKinds; kind++ {
		for seed := uint64(1); seed <= 50; seed++ {
			plane := append([]float64(nil), clean...)
			CorruptPlane(plane, kind, seed, bound)
			err := GuardPlane(plane, bound, energy)
			changed := false
			for i := range plane {
				if plane[i] != clean[i] && !(math.IsNaN(plane[i]) && math.IsNaN(clean[i])) {
					changed = true
					break
				}
			}
			if changed && err == nil {
				t.Fatalf("kind %v seed %d: value-changing corruption passed the guard", kind, seed)
			}
			if err != nil && !errors.Is(err, ErrDeviceFault) {
				t.Fatalf("guard error %v does not wrap ErrDeviceFault", err)
			}
		}
	}
	if err := GuardPlane(clean, bound, energy); err != nil {
		t.Fatalf("clean plane flagged: %v", err)
	}
}

func TestGuardZeroCollapse(t *testing.T) {
	plane := []float64{0, 0, 0}
	if err := GuardPlane(plane, 1, 2.5); err == nil {
		t.Fatal("zero plane with positive expected energy must be flagged")
	}
	// An expected-zero plane is legitimately zero.
	if err := GuardPlane(plane, 1, 0); err != nil {
		t.Fatalf("expected-zero plane flagged: %v", err)
	}
}

// FuzzFaultSpec: Parse never panics, every accepted spec keeps its
// documented invariants (rates in [0,1], probe interval ≥ 1, retries ≥ 0,
// stuck bits within [0,31], dead rows sorted and distinct), and String
// re-parses to the same fields. The seed corpus is in testdata/fuzz.
func FuzzFaultSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		inj, err := Parse(spec, seed)
		if err != nil {
			if inj != nil {
				t.Fatalf("Parse(%q) returned an injector with error %v", spec, err)
			}
			return
		}
		if inj == nil {
			return // empty or "none"
		}
		if !(inj.ShotRate >= 0 && inj.ShotRate <= 1) || !(inj.DriftRate >= 0 && inj.DriftRate <= 1) {
			t.Fatalf("Parse(%q): rates %v, %v outside [0,1]", spec, inj.ShotRate, inj.DriftRate)
		}
		if inj.ProbeInterval < 1 || inj.MaxShotRetries < 0 || inj.StuckBits>>32 != 0 {
			t.Fatalf("Parse(%q): probe %d, retries %d, stuck mask %#x", spec, inj.ProbeInterval, inj.MaxShotRetries, inj.StuckBits)
		}
		for i := 1; i < len(inj.Dead); i++ {
			if inj.Dead[i-1] >= inj.Dead[i] {
				t.Fatalf("Parse(%q): dead rows %v not sorted and distinct", spec, inj.Dead)
			}
		}
		again, err := Parse(inj.String(), seed)
		if err != nil || again == nil {
			t.Fatalf("Parse(%q) accepted, its String %q re-parses to %v, %v", spec, inj.String(), again, err)
		}
		same := again.Seed == inj.Seed &&
			math.Float64bits(again.ShotRate) == math.Float64bits(inj.ShotRate) &&
			math.Float64bits(again.DriftRate) == math.Float64bits(inj.DriftRate) &&
			again.ProbeInterval == inj.ProbeInterval &&
			again.MaxShotRetries == inj.MaxShotRetries &&
			again.StuckBits == inj.StuckBits &&
			again.OutageAt == inj.OutageAt &&
			slices.Equal(again.Dead, inj.Dead)
		if !same {
			t.Fatalf("Parse(%q) = %+v, its String %q re-parses to %+v", spec, inj, inj.String(), again)
		}
	})
}
