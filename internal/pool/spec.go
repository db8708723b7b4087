// Pool spec grammar: one string that names a whole device farm, in the
// spirit of the backend registry's engine specs.
//
//	pool?quarantine=3,probe=50ms,maxshards=4,devices=SPEC|SPEC*3
//
// Device specs themselves contain ',' (backend keys) and ';' (fault
// sub-grammar), so the devices= parameter is NOT ','-splittable and must
// come LAST: everything after "devices=" is the device list, split on '|'.
// A "SPEC*N" entry replicates one spec N times ("accelerator*4" is a
// four-device homogeneous farm); a replicated spec may not itself contain
// '*', and one spec names at most maxDevices devices. Parameters before
// devices=:
//
//	quarantine=N      consecutive faults before quarantine (default 3)
//	probe=DUR         background probe cadence (default 50ms)
//	maxshards=N       shard cap per request (default: pool size)
//	shard=S           execution strategy: sample (default) | channel
//	debug=BOOL        log scheduling decisions to stderr (default false)
package pool

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"photofourier/internal/nn"
)

// Name is the spec prefix that selects a device pool.
const Name = "pool"

// maxDevices caps the device count of one spec, so a short spec such as
// "pool?devices=a*2000000000" fails to parse instead of exhausting memory.
const maxDevices = 1024

// IsPoolSpec reports whether spec names a device pool rather than a single
// backend engine.
func IsPoolSpec(spec string) bool {
	return spec == Name || strings.HasPrefix(spec, Name+"?")
}

// ParseSpec parses a pool spec into Options (see the package grammar).
func ParseSpec(spec string) (Options, error) {
	var o Options
	if !IsPoolSpec(spec) {
		return o, fmt.Errorf("%w: spec %q does not start with %q", ErrBadPool, spec, Name+"?")
	}
	rest := strings.TrimPrefix(spec, Name)
	rest = strings.TrimPrefix(rest, "?")
	const devKey = "devices="
	i := strings.Index(rest, devKey)
	if i < 0 {
		return o, fmt.Errorf("%w: spec %q has no devices= list (it must be the last parameter)", ErrBadPool, spec)
	}
	params, devList := rest[:i], rest[i+len(devKey):]
	for _, dev := range strings.Split(devList, "|") {
		dev = strings.TrimSpace(dev)
		if dev == "" {
			return o, fmt.Errorf("%w: spec %q: empty device entry", ErrBadPool, spec)
		}
		reps := 1
		if j := strings.LastIndex(dev, "*"); j >= 0 {
			n, err := strconv.Atoi(dev[j+1:])
			one := strings.TrimSpace(dev[:j])
			if err != nil || n < 1 || one == "" || strings.Contains(one, "*") {
				return o, fmt.Errorf("%w: spec %q: bad replication %q (want SPEC*N, with no '*' in SPEC)", ErrBadPool, spec, dev)
			}
			reps, dev = n, one
		}
		if reps > maxDevices-len(o.Specs) {
			return o, fmt.Errorf("%w: spec %q: more than %d devices", ErrBadPool, spec, maxDevices)
		}
		for r := 0; r < reps; r++ {
			o.Specs = append(o.Specs, dev)
		}
	}
	params = strings.TrimSuffix(params, ",")
	if params != "" {
		for _, kv := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok || key == "" || val == "" {
				return o, fmt.Errorf("%w: spec %q: parameter %q is not key=value", ErrBadPool, spec, kv)
			}
			var err error
			switch key {
			case "quarantine":
				o.QuarantineThreshold, err = strconv.Atoi(val)
			case "probe":
				o.ProbeInterval, err = time.ParseDuration(val)
			case "maxshards":
				o.MaxShards, err = strconv.Atoi(val)
			case "shard":
				o.Shard = val
			case "debug":
				o.Debug, err = strconv.ParseBool(val)
			default:
				return o, fmt.Errorf("%w: spec %q: unknown parameter %q (devices= must come last)", ErrBadPool, spec, key)
			}
			if err != nil {
				return o, fmt.Errorf("%w: spec %q: parameter %q: %v", ErrBadPool, spec, kv, err)
			}
		}
	}
	return o, nil
}

// Open parses a pool spec and builds the pool over net — the pool twin of
// backend.Open + Network.Compile.
func Open(net *nn.Network, spec string) (*DevicePool, error) {
	o, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	p, err := New(net, o)
	if err != nil {
		return nil, err
	}
	p.spec = spec
	return p, nil
}

// synthesizeSpec renders defaulted Options back into the canonical grammar
// (used by New, where no textual spec exists yet). ParseSpec of the result
// gives the same options after withDefaults; FuzzPoolSpec checks it.
func synthesizeSpec(o Options) string {
	var b strings.Builder
	b.WriteString(Name + "?")
	if o.Shard != "" && o.Shard != ShardSample {
		fmt.Fprintf(&b, "shard=%s,", o.Shard)
	}
	if o.Debug {
		b.WriteString("debug=true,")
	}
	fmt.Fprintf(&b, "quarantine=%d,probe=%s,", o.QuarantineThreshold, o.ProbeInterval)
	if o.MaxShards != len(o.Specs) {
		fmt.Fprintf(&b, "maxshards=%d,", o.MaxShards)
	}
	b.WriteString("devices=" + strings.Join(o.Specs, "|"))
	return b.String()
}
