package pool

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"photofourier/internal/nn"
)

const parseSpecExample = "pool?quarantine=2,probe=10ms,maxshards=3,devices=accelerator?workers=1|accelerator?fault=shot:1e-3;outage:40,faultseed=7|reference"

func TestParseSpec(t *testing.T) {
	o, err := ParseSpec(parseSpecExample)
	if err != nil {
		t.Fatal(err)
	}
	if o.QuarantineThreshold != 2 || o.ProbeInterval != 10*time.Millisecond || o.MaxShards != 3 {
		t.Fatalf("params: %+v", o)
	}
	want := []string{
		"accelerator?workers=1",
		"accelerator?fault=shot:1e-3;outage:40,faultseed=7", // ',' and ';' survive inside a device spec
		"reference",
	}
	if len(o.Specs) != len(want) {
		t.Fatalf("specs %v, want %v", o.Specs, want)
	}
	for i := range want {
		if o.Specs[i] != want[i] {
			t.Errorf("spec %d: %q, want %q", i, o.Specs[i], want[i])
		}
	}
}

func TestParseSpecReplication(t *testing.T) {
	o, err := ParseSpec("pool?devices=accelerator?workers=1*3|reference")
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Specs) != 4 {
		t.Fatalf("specs %v, want 3 accelerators + 1 reference", o.Specs)
	}
	for i := 0; i < 3; i++ {
		if o.Specs[i] != "accelerator?workers=1" {
			t.Fatalf("spec %d: %q", i, o.Specs[i])
		}
	}
	if o.Specs[3] != "reference" {
		t.Fatalf("spec 3: %q", o.Specs[3])
	}
}

func TestParseSpecRejects(t *testing.T) {
	bad := []string{
		"accelerator",                       // not a pool spec
		"pool",                              // no devices
		"pool?hedge=true",                   // no devices
		"pool?devices=",                     // empty device list
		"pool?devices=a||b",                 // empty entry
		"pool?devices=accelerator*0",        // bad replication
		"pool?bogus=1,devices=accelerator",  // unknown parameter
		"pool?hedge,devices=accelerator",    // not key=value
		"pool?probe=xyz,devices=reference",  // bad duration
		"pool?hedge=true,devices=reference", // unknown parameter: no hedging
		"pool?devices=a*2*3",                // nested replication
		"pool?devices= *2",                  // replicated empty entry
		"pool?devices=a*1000|b*25",          // more than maxDevices devices
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); !errors.Is(err, ErrBadPool) {
			t.Errorf("ParseSpec(%q) err %v, want ErrBadPool", spec, err)
		}
	}
}

func TestOpenPool(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	p, err := Open(net, "pool?quarantine=1,devices=accelerator?workers=1*2")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Size() != 2 || p.Live() != 2 {
		t.Fatalf("size=%d live=%d, want 2/2", p.Size(), p.Live())
	}
	if p.Spec() != "pool?quarantine=1,devices=accelerator?workers=1*2" {
		t.Fatalf("spec %q not preserved", p.Spec())
	}
	if _, err := p.ForwardBatch(poolBatch(1, 3)); err != nil {
		t.Fatal(err)
	}
	// New synthesizes its spec from the options, and reopening it keeps
	// every option, here the shard cap of 1.
	q := mustPool(t, net, Options{Specs: repeatSpec("reference", 2), MaxShards: 1})
	r, err := Open(net, q.Spec())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ForwardBatch(poolBatch(1, 2)); err != nil {
		t.Fatal(err)
	}
	if c := r.Counters(); c.Shards != 1 {
		t.Fatalf("reopened %q ran %d shards per call, want 1", q.Spec(), c.Shards)
	}
	// IsPoolSpec steers the CLI between pool and single-engine paths.
	if !IsPoolSpec("pool?devices=reference") || IsPoolSpec("accelerator") {
		t.Fatal("IsPoolSpec misclassified")
	}
}

// FuzzPoolSpec checks the spec round trip: whenever ParseSpec accepts a
// spec and the options validate, the spec synthesized from the defaulted
// options parses back to the same defaulted options.
func FuzzPoolSpec(f *testing.F) {
	f.Add(parseSpecExample)
	f.Add("pool?maxshards=1,devices=reference*2")
	f.Add("pool?devices=a*2*3")
	f.Add("pool?devices=reference *2") // the space before *2 is trimmed
	f.Add("pool?shard=channel,debug=true,probe=1h,devices=accelerator?workers=1*4")
	f.Fuzz(func(t *testing.T, spec string) {
		o, err := ParseSpec(spec)
		if err != nil || o.validate() != nil {
			return
		}
		want := exportedOptions(o.withDefaults())
		syn := synthesizeSpec(want)
		back, err := ParseSpec(syn)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its synthesized %q fails: %v", spec, syn, err)
		}
		if got := exportedOptions(back.withDefaults()); !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseSpec(%q) = %+v, but its synthesized %q gives %+v", spec, want, syn, got)
		}
	})
}

// exportedOptions drops the unexported clock seams, which reflect.DeepEqual
// cannot compare.
func exportedOptions(o Options) Options {
	o.now, o.after = nil, nil
	return o
}
