package backend

import (
	"errors"
	"strings"
	"testing"

	"photofourier/internal/core"
)

// TestRegistryNames: the five built-in substrates are registered.
func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"accelerator", "accelerator-noisy", "reference", "rowtiled", "unplanned"}
	if len(names) < len(want) {
		t.Fatalf("registry has %v, want at least %v", names, want)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("backend %q not registered (have %v)", w, names)
		}
	}
}

// roundTripSpecs lists, per backend, spec strings exercising default and
// non-default operating points. The conformance loop below checks every
// registered backend appears here, so a new backend must add its specs.
var roundTripSpecs = map[string][]string{
	"reference": {"reference"},
	"rowtiled": {
		"rowtiled",
		"rowtiled?aperture=64",
		"rowtiled?aperture=128,colpad=true,workers=2",
	},
	"accelerator": {
		"accelerator",
		"accelerator?nta=4,adc=6,dac=7,seed=7,workers=4",
		"accelerator?aperture=64,tiled=true",
		"accelerator?calib=0.99,adc=0",
	},
	"accelerator-noisy": {
		"accelerator-noisy",
		"accelerator-noisy?noise=0.01,nta=2",
		"accelerator-noisy?noise=0,seed=21",
	},
	"unplanned": {
		"unplanned",
		"unplanned?nta=8,noise=0.005",
	},
}

// TestSpecRoundTrip: for every registered backend, Open(spec).String() is
// canonical and re-Opens to an identical resolved Config — spec strings are
// a faithful serialization of engine construction.
func TestSpecRoundTrip(t *testing.T) {
	for _, name := range Names() {
		specs, ok := roundTripSpecs[name]
		if !ok {
			t.Errorf("backend %q has no round-trip specs; add it to roundTripSpecs", name)
			continue
		}
		for _, spec := range specs {
			e, err := Open(spec)
			if err != nil {
				t.Errorf("Open(%q): %v", spec, err)
				continue
			}
			if e.Backend() != name {
				t.Errorf("Open(%q).Backend() = %q, want %q", spec, e.Backend(), name)
			}
			canon := e.String()
			if !strings.HasPrefix(canon, name) {
				t.Errorf("Open(%q).String() = %q, want %q prefix", spec, canon, name)
			}
			re, err := Open(canon)
			if err != nil {
				t.Errorf("Open(%q).String() = %q does not re-open: %v", spec, canon, err)
				continue
			}
			if re.Config() != e.Config() {
				t.Errorf("round trip %q -> %q: config %+v vs %+v", spec, canon, re.Config(), e.Config())
			}
			if re.String() != canon {
				t.Errorf("canonical form unstable: %q -> %q", canon, re.String())
			}
		}
	}
}

// FuzzBackendSpec checks the spec round trip on arbitrary strings: whenever
// Open accepts a spec, its canonical String re-opens to an equal Config and
// the same String. The target only opens and renders specs; it never
// compiles or runs an engine, so no value it opens starts any work.
func FuzzBackendSpec(f *testing.F) {
	for _, name := range Names() {
		for _, spec := range roundTripSpecs[name] {
			f.Add(spec)
		}
	}
	f.Add("accelerator?fault=shot:1e-3;outage:40,faultseed=7")
	f.Add("accelerator-noisy?noise=NaN") // accepted, and reopened to a different Config, before noise had to be finite
	f.Add("accelerator?calib=NaN")
	f.Add("accelerator?fault=shot:1e-3 ,nta=4") // the canonical spec ended in the fault's space, which Open trims
	f.Fuzz(func(t *testing.T, spec string) {
		e, err := Open(spec)
		if err != nil {
			return
		}
		canon := e.String()
		re, err := Open(canon)
		if err != nil {
			t.Fatalf("Open(%q) accepted, but its canonical %q fails: %v", spec, canon, err)
		}
		if re.Config() != e.Config() {
			t.Fatalf("Open(%q) config %+v, but its canonical %q gives %+v", spec, e.Config(), canon, re.Config())
		}
		if re.String() != canon {
			t.Fatalf("canonical form of %q unstable: %q -> %q", spec, canon, re.String())
		}
	})
}

// TestSeedResolvesOnce: a zero seed resolves to the default at Open — no
// runtime re-fallback, and the canonical spec does not carry seed=0.
func TestSeedResolvesOnce(t *testing.T) {
	e, err := Open("accelerator?seed=0")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Config().ReadoutSeed; got != core.DefaultReadoutSeed {
		t.Errorf("seed=0 resolved to %d, want %d", got, core.DefaultReadoutSeed)
	}
	if e.String() != "accelerator" {
		t.Errorf("canonical spec %q, want %q", e.String(), "accelerator")
	}
	under, ok := e.Unwrap().(*core.Engine)
	if !ok {
		t.Fatalf("accelerator unwraps to %T", e.Unwrap())
	}
	if under.ReadoutSeed != core.DefaultReadoutSeed {
		t.Errorf("engine seed %d, want %d", under.ReadoutSeed, core.DefaultReadoutSeed)
	}
}

// TestOptionSpecParity: functional options and spec strings resolve to the
// same engine configuration.
func TestOptionSpecParity(t *testing.T) {
	fromSpec, err := Open("accelerator-noisy?nta=4,adc=6,seed=9,noise=0.01,workers=3,aperture=128,tiled=true,calib=0.95,dac=5")
	if err != nil {
		t.Fatal(err)
	}
	fromOpts, err := OpenWith("accelerator-noisy",
		WithNTA(4), WithADCBits(6), WithReadoutSeed(9), WithReadoutNoise(0.01),
		WithParallelism(3), WithAperture(128), WithTiledPath(true),
		WithCalibPercentile(0.95), WithDACBits(5))
	if err != nil {
		t.Fatal(err)
	}
	if fromSpec.Config() != fromOpts.Config() {
		t.Errorf("spec %+v vs options %+v", fromSpec.Config(), fromOpts.Config())
	}
	if fromSpec.String() != fromOpts.String() {
		t.Errorf("canonical specs differ: %q vs %q", fromSpec.String(), fromOpts.String())
	}
	noiseFree, err := OpenWith("accelerator-noisy", WithNoiseFree())
	if err != nil {
		t.Fatal(err)
	}
	if noiseFree.Config().ReadoutNoise != 0 {
		t.Errorf("WithNoiseFree left noise %g", noiseFree.Config().ReadoutNoise)
	}
	if noiseFree.Capabilities().Noisy {
		t.Error("noise-free operating point still advertises Noisy")
	}
	// WithNoiseFree is universally applicable: backends without a noise
	// knob are already noise-free, so it is an accepted no-op everywhere.
	for _, name := range Names() {
		if _, err := OpenWith(name, WithNoiseFree()); err != nil {
			t.Errorf("OpenWith(%q, WithNoiseFree()): %v", name, err)
		}
	}
}

// TestBadSpecs: the error taxonomy — unknown names are ErrUnknownBackend,
// everything malformed or out of range is ErrBadSpec.
func TestBadSpecs(t *testing.T) {
	if _, err := Open("warpdrive"); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("unknown backend: %v", err)
	}
	for _, spec := range []string{
		"",                            // empty name
		"accelerator?",                // empty parameter list
		"accelerator?nta",             // not key=value
		"accelerator?nta=",            // empty value
		"accelerator?nta=x",           // unparseable value
		"accelerator?bogus=1",         // unknown key
		"accelerator?noise=0.1",       // key not accepted by this backend
		"reference?workers=4",         // reference takes no options
		"accelerator?nta=0",           // out of range
		"accelerator?adc=40",          // out of range
		"accelerator?dac=1",           // a signed 1-bit DAC has no positive level
		"accelerator?dac=33",          // out of range
		"unplanned?dac=1",             // the same check on the unplanned twin
		"accelerator?nta=4,nta=8",     // duplicate key
		"rowtiled?aperture=1",         // out of range
		"accelerator-noisy?noise=-1",  // out of range
		"accelerator-noisy?calib=1.5", // out of range
		"accelerator-noisy?noise=NaN", // not finite
		"accelerator-noisy?noise=Inf", // not finite
		"accelerator?calib=NaN",       // not finite
	} {
		if _, err := Open(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Open(%q): want ErrBadSpec, got %v", spec, err)
		}
	}
	if _, err := OpenWith("accelerator", WithDACBits(1)); !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), "[2,32]") {
		t.Errorf("1-bit DAC option: %v, want ErrBadSpec naming the range [2,32]", err)
	}
	if _, err := Open("accelerator?dac=2"); err != nil {
		t.Errorf("2-bit DAC: %v", err)
	}
	if _, err := OpenWith("rowtiled", WithNTA(4)); !errors.Is(err, ErrBadSpec) {
		t.Errorf("inapplicable option: %v", err)
	}
	if _, err := OpenWith("accelerator", Option{}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("zero option: %v", err)
	}
}

// TestUnplannedTwin: the twin shares the exact resolved operating point
// with planning suppressed; non-plannable engines are their own twin.
func TestUnplannedTwin(t *testing.T) {
	e, err := Open("accelerator-noisy?nta=4,noise=0.01")
	if err != nil {
		t.Fatal(err)
	}
	twin, err := UnplannedTwin(e)
	if err != nil {
		t.Fatal(err)
	}
	if twin.Backend() != "unplanned" {
		t.Errorf("twin backend %q", twin.Backend())
	}
	if twin.Config() != e.Config() {
		t.Errorf("twin config %+v vs %+v", twin.Config(), e.Config())
	}
	if twin.Capabilities().Plannable {
		t.Error("twin advertises Plannable")
	}
	rt, err := Open("rowtiled")
	if err != nil {
		t.Fatal(err)
	}
	if twin2, err := UnplannedTwin(rt); err != nil || twin2 != rt {
		t.Errorf("non-plannable twin = %v, %v; want the engine itself", twin2, err)
	}
}
