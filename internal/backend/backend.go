// Package backend is the unified engine registry: every execution substrate
// (reference 2D convolution, the row-tiled 1D JTC path, the quantized
// accelerator and its variants) self-registers under a stable name and is
// constructed from a spec string
//
//	name?key=val,key=val,...
//
// (e.g. "accelerator?nta=16,adc=8,seed=7,workers=4") or from functional
// options (WithNTA, WithParallelism, ...). Engine choice becomes data
// instead of code: experiments, commands, and benchmarks select substrates
// by spec, and new operating points need no new call sites.
//
// Opened engines are immutable: every knob is resolved exactly once inside
// Open/OpenWith, the concrete engine is built fully configured, and callers
// only see the opened handle — no post-construction field mutation, which
// also removes the plan-staleness hazards of mutable engine structs.
//
// Each backend advertises nn.Capabilities so callers branch on what a
// substrate can do (Plannable, Noisy, Quantized, DefaultAperture) instead
// of type-switching on concrete engine types.
package backend

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"photofourier/internal/fault"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

// Typed sentinel errors; test with errors.Is.
var (
	// ErrUnknownBackend marks a spec or OpenWith call naming a backend
	// that is not registered.
	ErrUnknownBackend = errors.New("unknown backend")
	// ErrBadSpec marks a malformed spec string, an option the named
	// backend does not accept, or an option value out of range.
	ErrBadSpec = errors.New("bad engine spec")
)

// Config is the fully resolved operating point an engine is built from.
// Every backend consumes the subset of fields it accepts (see Keys); the
// zero value of a field the backend does not accept is ignored.
type Config struct {
	// Parallelism bounds the engine's worker pools; <= 0 selects
	// runtime.NumCPU(). Spec key "workers".
	Parallelism int
	// Aperture is the 1D convolution aperture (PFCU input waveguides).
	// Spec key "aperture".
	Aperture int
	// ColumnPad zero-pads row tiles for exact Same-mode equality.
	// Spec key "colpad".
	ColumnPad bool
	// NTA is the temporal accumulation depth. Spec key "nta".
	NTA int
	// ADCBits is the partial-sum readout precision (0 = full precision).
	// Spec key "adc".
	ADCBits int
	// DACBits is the operand precision (0 = full precision). Spec key
	// "dac".
	DACBits int
	// ReadoutSeed seeds the readout-noise substreams; 0 resolves to
	// core.DefaultReadoutSeed at Open. Spec key "seed".
	ReadoutSeed int64
	// ReadoutNoise is the per-readout sensing noise as a fraction of the
	// ADC full scale. Spec key "noise".
	ReadoutNoise float64
	// CalibPercentile sets percentile-based ADC range calibration
	// (0 or 1 = max-based). Spec key "calib".
	CalibPercentile float64
	// Tiled routes the accelerator through exact 1D row-tiled shots.
	// Spec key "tiled".
	Tiled bool
	// Fault is the fault-injection spec ("shot:1e-3;drift:5e-5", see
	// internal/fault); "" disables injection. Spec key "fault".
	Fault string
	// FaultSeed keys the injector's deterministic fault draws. Spec key
	// "faultseed".
	FaultSeed int64
}

// Option sets one Config field before the engine is built. Options carry
// their spec key, so OpenWith rejects options the named backend does not
// accept — functional options and spec strings have exact parity.
type Option struct {
	key   string
	apply func(*Config)
}

// Key reports the spec-string key the option corresponds to; "" marks a
// universally applicable option (accepted by every backend).
func (o Option) Key() string { return o.key }

// WithParallelism bounds the engine's worker pools (<= 0 = NumCPU).
func WithParallelism(workers int) Option {
	return Option{key: "workers", apply: func(c *Config) { c.Parallelism = workers }}
}

// WithAperture sets the 1D convolution aperture (PFCU input waveguides).
func WithAperture(nconv int) Option {
	return Option{key: "aperture", apply: func(c *Config) { c.Aperture = nconv }}
}

// WithColumnPad toggles zero-padded row tiles (exact Same-mode equality).
func WithColumnPad(on bool) Option {
	return Option{key: "colpad", apply: func(c *Config) { c.ColumnPad = on }}
}

// WithNTA sets the temporal accumulation depth.
func WithNTA(nta int) Option {
	return Option{key: "nta", apply: func(c *Config) { c.NTA = nta }}
}

// WithADCBits sets the partial-sum readout precision (0 = full precision).
func WithADCBits(bits int) Option {
	return Option{key: "adc", apply: func(c *Config) { c.ADCBits = bits }}
}

// WithDACBits sets the operand precision (0 = full precision).
func WithDACBits(bits int) Option {
	return Option{key: "dac", apply: func(c *Config) { c.DACBits = bits }}
}

// WithReadoutSeed seeds the readout-noise substreams (0 = default seed).
func WithReadoutSeed(seed int64) Option {
	return Option{key: "seed", apply: func(c *Config) { c.ReadoutSeed = seed }}
}

// WithReadoutNoise sets the per-readout sensing noise fraction.
func WithReadoutNoise(f float64) Option {
	return Option{key: "noise", apply: func(c *Config) { c.ReadoutNoise = f }}
}

// WithNoiseFree zeroes every configurable noise source. It applies to
// every backend (an empty option key is universally accepted): backends
// without a noise knob are already noise-free, so it is a no-op there.
func WithNoiseFree() Option {
	return Option{key: "", apply: func(c *Config) { c.ReadoutNoise = 0 }}
}

// WithTiledPath routes the accelerator through exact 1D row-tiled shots.
func WithTiledPath(on bool) Option {
	return Option{key: "tiled", apply: func(c *Config) { c.Tiled = on }}
}

// WithCalibPercentile sets percentile-based ADC range calibration.
func WithCalibPercentile(p float64) Option {
	return Option{key: "calib", apply: func(c *Config) { c.CalibPercentile = p }}
}

// WithFault attaches a deterministic fault-injection spec (internal/fault
// grammar, e.g. "shot:1e-3;drift:5e-5"); "" disables injection. Surrounding
// space is trimmed, as the fault parser ignores it, so the canonical spec
// does not carry it.
func WithFault(spec string) Option {
	return Option{key: "fault", apply: func(c *Config) { c.Fault = strings.TrimSpace(spec) }}
}

// WithFaultSeed keys the injector's deterministic fault draws.
func WithFaultSeed(seed int64) Option {
	return Option{key: "faultseed", apply: func(c *Config) { c.FaultSeed = seed }}
}

// keyDef describes one spec key: how to parse a spec value into an Option
// and how to emit the canonical value when it differs from the backend
// default.
type keyDef struct {
	parse func(val string) (Option, error)
	emit  func(cfg Config) string
	same  func(a, b Config) bool
}

func intKey(with func(int) Option, get func(Config) int) keyDef {
	return keyDef{
		parse: func(val string) (Option, error) {
			n, err := strconv.Atoi(val)
			if err != nil {
				return Option{}, err
			}
			return with(n), nil
		},
		emit: func(cfg Config) string { return strconv.Itoa(get(cfg)) },
		same: func(a, b Config) bool { return get(a) == get(b) },
	}
}

func boolKey(with func(bool) Option, get func(Config) bool) keyDef {
	return keyDef{
		parse: func(val string) (Option, error) {
			b, err := strconv.ParseBool(val)
			if err != nil {
				return Option{}, err
			}
			return with(b), nil
		},
		emit: func(cfg Config) string { return strconv.FormatBool(get(cfg)) },
		same: func(a, b Config) bool { return get(a) == get(b) },
	}
}

func floatKey(with func(float64) Option, get func(Config) float64) keyDef {
	return keyDef{
		parse: func(val string) (Option, error) {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Option{}, err
			}
			return with(f), nil
		},
		emit: func(cfg Config) string { return strconv.FormatFloat(get(cfg), 'g', -1, 64) },
		same: func(a, b Config) bool { return get(a) == get(b) },
	}
}

// keyTable maps every spec key to its parser/formatter. keyOrder fixes the
// canonical emission order of Spec/String.
var keyTable = map[string]keyDef{
	"aperture": intKey(WithAperture, func(c Config) int { return c.Aperture }),
	"colpad":   boolKey(WithColumnPad, func(c Config) bool { return c.ColumnPad }),
	"nta":      intKey(WithNTA, func(c Config) int { return c.NTA }),
	"adc":      intKey(WithADCBits, func(c Config) int { return c.ADCBits }),
	"dac":      intKey(WithDACBits, func(c Config) int { return c.DACBits }),
	"seed": {
		parse: func(val string) (Option, error) {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Option{}, err
			}
			return WithReadoutSeed(n), nil
		},
		emit: func(cfg Config) string { return strconv.FormatInt(cfg.ReadoutSeed, 10) },
		same: func(a, b Config) bool { return a.ReadoutSeed == b.ReadoutSeed },
	},
	"noise":   floatKey(WithReadoutNoise, func(c Config) float64 { return c.ReadoutNoise }),
	"calib":   floatKey(WithCalibPercentile, func(c Config) float64 { return c.CalibPercentile }),
	"tiled":   boolKey(WithTiledPath, func(c Config) bool { return c.Tiled }),
	"workers": intKey(WithParallelism, func(c Config) int { return c.Parallelism }),
	"fault": {
		// The value is the internal/fault sub-grammar, carried verbatim
		// (';'-separated, so it never collides with the ','-separated spec
		// parameters); validateConfig parses it for errors.
		parse: func(val string) (Option, error) { return WithFault(val), nil },
		emit:  func(cfg Config) string { return cfg.Fault },
		same:  func(a, b Config) bool { return a.Fault == b.Fault },
	},
	"faultseed": {
		parse: func(val string) (Option, error) {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Option{}, err
			}
			return WithFaultSeed(n), nil
		},
		emit: func(cfg Config) string { return strconv.FormatInt(cfg.FaultSeed, 10) },
		same: func(a, b Config) bool { return a.FaultSeed == b.FaultSeed },
	},
}

var keyOrder = []string{"aperture", "colpad", "nta", "adc", "dac", "seed", "noise", "calib", "tiled", "workers", "fault", "faultseed"}

// Definition registers one backend: a name, its capability advertisement,
// its default operating point, the spec keys it accepts, and a constructor
// consuming the fully resolved Config.
type Definition struct {
	// Name is the registry key ("accelerator", "rowtiled", ...).
	Name string
	// Caps is the backend-level capability advertisement.
	Caps nn.Capabilities
	// Defaults is the operating point Open uses with no options.
	Defaults Config
	// Keys lists the spec keys / options the backend accepts.
	Keys []string
	// Validate checks the resolved config (after defaults and options);
	// nil means no extra checks.
	Validate func(Config) error
	// Build constructs the fully configured engine.
	Build func(Config) (nn.ConvEngine, error)

	// accepted is the Keys set, precomputed once at Register.
	accepted map[string]bool
}

func (d *Definition) accepts(key string) bool { return key == "" || d.accepted[key] }

var (
	regMu    sync.RWMutex
	registry = map[string]*Definition{}
)

// Register adds a backend definition. It panics on a duplicate or invalid
// definition (registration happens in init functions).
func Register(def Definition) {
	if def.Name == "" || def.Build == nil {
		panic("backend: Register needs a name and a Build function")
	}
	for _, k := range def.Keys {
		if _, ok := keyTable[k]; !ok {
			panic(fmt.Sprintf("backend: %s registers unknown key %q", def.Name, k))
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[def.Name]; dup {
		panic(fmt.Sprintf("backend: duplicate registration of %q", def.Name))
	}
	d := def
	d.accepted = make(map[string]bool, len(d.Keys))
	for _, k := range d.Keys {
		d.accepted[k] = true
	}
	registry[def.Name] = &d
}

func lookup(name string) (*Definition, error) {
	regMu.RLock()
	def, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: %w: %q (have %s)", ErrUnknownBackend, name, strings.Join(Names(), ", "))
	}
	return def, nil
}

// Names returns every registered backend name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Describe returns the capability advertisement of a registered backend.
func Describe(name string) (nn.Capabilities, error) {
	def, err := lookup(name)
	if err != nil {
		return nn.Capabilities{}, err
	}
	return def.Caps, nil
}

// Defaults returns the default operating point of a registered backend.
func Defaults(name string) (Config, error) {
	def, err := lookup(name)
	if err != nil {
		return Config{}, err
	}
	return def.Defaults, nil
}

// Keys returns the spec keys a registered backend accepts, in canonical
// order.
func Keys(name string) ([]string, error) {
	def, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return orderedKeys(def), nil
}

func orderedKeys(def *Definition) []string {
	out := make([]string, 0, len(def.Keys))
	for _, k := range keyOrder {
		if def.accepted[k] {
			out = append(out, k)
		}
	}
	return out
}

// Spec is a parsed engine spec: a backend name plus ordered key=value
// parameters.
type Spec struct {
	Name   string
	Params []Param
}

// Param is one key=value spec parameter.
type Param struct{ Key, Value string }

// ParseSpec parses "name" or "name?key=val,key=val,..." without resolving
// the backend (Open does that). Duplicate keys are rejected.
func ParseSpec(spec string) (Spec, error) {
	name, query, hasQuery := strings.Cut(strings.TrimSpace(spec), "?")
	if name == "" {
		return Spec{}, fmt.Errorf("backend: %w: empty backend name in %q", ErrBadSpec, spec)
	}
	sp := Spec{Name: name}
	if !hasQuery {
		return sp, nil
	}
	if query == "" {
		return Spec{}, fmt.Errorf("backend: %w: empty parameter list in %q", ErrBadSpec, spec)
	}
	seen := map[string]bool{}
	for _, item := range strings.Split(query, ",") {
		key, val, ok := strings.Cut(item, "=")
		if !ok || key == "" || val == "" {
			return Spec{}, fmt.Errorf("backend: %w: parameter %q in %q (want key=value)", ErrBadSpec, item, spec)
		}
		if seen[key] {
			return Spec{}, fmt.Errorf("backend: %w: duplicate key %q in %q", ErrBadSpec, key, spec)
		}
		seen[key] = true
		sp.Params = append(sp.Params, Param{Key: key, Value: val})
	}
	return sp, nil
}

// String renders the spec in grammar form (name?key=val,...).
func (s Spec) String() string {
	if len(s.Params) == 0 {
		return s.Name
	}
	var b strings.Builder
	b.WriteString(s.Name)
	for i, p := range s.Params {
		if i == 0 {
			b.WriteByte('?')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(p.Key)
		b.WriteByte('=')
		b.WriteString(p.Value)
	}
	return b.String()
}

// Open builds an engine from a spec string ("accelerator?nta=16,adc=8").
func Open(spec string) (*Engine, error) {
	sp, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return OpenSpec(sp)
}

// OpenSpec builds an engine from a parsed spec.
func OpenSpec(sp Spec) (*Engine, error) {
	if _, err := lookup(sp.Name); err != nil {
		return nil, err
	}
	opts := make([]Option, 0, len(sp.Params))
	for _, p := range sp.Params {
		kd, ok := keyTable[p.Key]
		if !ok {
			return nil, fmt.Errorf("backend: %w: unknown key %q in %q", ErrBadSpec, p.Key, sp.String())
		}
		opt, err := kd.parse(p.Value)
		if err != nil {
			return nil, fmt.Errorf("backend: %w: key %q value %q: %v", ErrBadSpec, p.Key, p.Value, err)
		}
		opts = append(opts, opt)
	}
	return OpenWith(sp.Name, opts...)
}

// OpenWith builds an engine by backend name and functional options. Every
// knob is resolved here, once; the returned engine is immutable.
func OpenWith(name string, opts ...Option) (*Engine, error) {
	def, err := lookup(name)
	if err != nil {
		return nil, err
	}
	cfg := def.Defaults
	for _, opt := range opts {
		if opt.apply == nil {
			return nil, fmt.Errorf("backend: %w: zero Option passed to OpenWith(%q)", ErrBadSpec, name)
		}
		if !def.accepts(opt.key) {
			return nil, fmt.Errorf("backend: %w: backend %q does not accept option %q (accepts %s)",
				ErrBadSpec, name, opt.key, strings.Join(orderedKeys(def), ", "))
		}
		opt.apply(&cfg)
	}
	if err := validateConfig(def, cfg); err != nil {
		return nil, err
	}
	if def.accepted["seed"] && cfg.ReadoutSeed == 0 {
		cfg.ReadoutSeed = defaultReadoutSeed
	}
	eng, err := def.Build(cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng, def: def, cfg: cfg}, nil
}

// validateConfig applies the shared value-range checks, then the backend's
// own Validate hook.
func validateConfig(def *Definition, cfg Config) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("backend: %w: %s: %s", ErrBadSpec, def.Name, fmt.Sprintf(format, args...))
	}
	accepted := def.accepted
	if accepted["aperture"] && cfg.Aperture < 2 {
		return bad("aperture %d must be >= 2", cfg.Aperture)
	}
	if accepted["nta"] && cfg.NTA < 1 {
		return bad("nta %d must be >= 1", cfg.NTA)
	}
	if accepted["adc"] && (cfg.ADCBits < 0 || cfg.ADCBits > 32) {
		return bad("adc bits %d out of range [0,32]", cfg.ADCBits)
	}
	// A signed DAC needs 2 bits for one positive level (quant.NewLinear).
	if accepted["dac"] && (cfg.DACBits < 0 || cfg.DACBits == 1 || cfg.DACBits > 32) {
		return bad("dac bits %d out of range: 0 (full precision) or [2,32]", cfg.DACBits)
	}
	if accepted["noise"] && (math.IsNaN(cfg.ReadoutNoise) || math.IsInf(cfg.ReadoutNoise, 0) || cfg.ReadoutNoise < 0) {
		return bad("noise %g must be finite and >= 0", cfg.ReadoutNoise)
	}
	if accepted["calib"] && !(cfg.CalibPercentile >= 0 && cfg.CalibPercentile <= 1) {
		return bad("calib percentile %g out of range [0,1]", cfg.CalibPercentile)
	}
	if accepted["fault"] && cfg.Fault != "" {
		if _, err := fault.Parse(cfg.Fault, cfg.FaultSeed); err != nil {
			return bad("%v", err)
		}
	}
	if def.Validate != nil {
		if err := def.Validate(cfg); err != nil {
			return fmt.Errorf("backend: %w: %s: %v", ErrBadSpec, def.Name, err)
		}
	}
	return nil
}

// Engine is an opened, immutable execution substrate: the configured
// concrete engine plus its backend identity, capabilities, and canonical
// spec. It implements nn.ConvEngine, nn.CapabilityReporter, and
// nn.LayerPlanner (planning is only exercised when Capabilities().Plannable
// is advertised — the compiler branches on capability, not type).
type Engine struct {
	eng nn.ConvEngine
	def *Definition
	cfg Config
}

// Conv2D implements nn.ConvEngine.
func (e *Engine) Conv2D(input, weight *tensor.Tensor, bias []float64, stride int, pad tensor.PadMode) (*tensor.Tensor, error) {
	return e.eng.Conv2D(input, weight, bias, stride, pad)
}

// Name implements nn.ConvEngine (the substrate's descriptive name; use
// String for the canonical spec).
func (e *Engine) Name() string { return e.eng.Name() }

// PlanConv implements nn.LayerPlanner by forwarding to the underlying
// engine. Callers must branch on Capabilities().Plannable first.
func (e *Engine) PlanConv(weight *tensor.Tensor, bias []float64, stride int, pad tensor.PadMode) (nn.LayerPlan, error) {
	planner, ok := e.eng.(nn.LayerPlanner)
	if !ok {
		return nil, fmt.Errorf("backend: %s engine does not plan layers (Plannable=false)", e.def.Name)
	}
	return planner.PlanConv(weight, bias, stride, pad)
}

// Capabilities implements nn.CapabilityReporter: the live capabilities of
// the opened instance (e.g. Noisy reflects the resolved operating point).
func (e *Engine) Capabilities() nn.Capabilities {
	if cr, ok := e.eng.(nn.CapabilityReporter); ok {
		return cr.Capabilities()
	}
	return e.def.Caps
}

// Backend returns the registry name the engine was opened under.
func (e *Engine) Backend() string { return e.def.Name }

// Config returns the fully resolved operating point.
func (e *Engine) Config() Config { return e.cfg }

// Unwrap returns the underlying concrete engine (for white-box tests;
// mutating it voids the immutability contract).
func (e *Engine) Unwrap() nn.ConvEngine { return e.eng }

// String returns the canonical spec: the backend name plus every parameter
// that differs from the backend's defaults, in canonical key order.
// Open(e.String()) reconstructs an engine with an identical Config.
func (e *Engine) String() string {
	sp := Spec{Name: e.def.Name}
	for _, k := range orderedKeys(e.def) {
		kd := keyTable[k]
		if kd.same(e.cfg, e.def.Defaults) {
			continue
		}
		sp.Params = append(sp.Params, Param{Key: k, Value: kd.emit(e.cfg)})
	}
	return sp.String()
}
