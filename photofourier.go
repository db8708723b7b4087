// Package photofourier is the public API of the PhotoFourier reproduction:
// a photonic Joint Transform Correlator-based neural network accelerator
// (Li et al., HPCA 2023). It re-exports the main entry points of the
// internal packages:
//
//   - backend registry: Open("accelerator?nta=16,adc=8") builds any
//     registered execution substrate from a spec string (engine choice is
//     data, not code); OpenWith composes the same operating points from
//     functional options; Backends/Describe enumerate names and
//     capabilities;
//   - functional inference: registry-opened engines run real CNN
//     convolutions through the paper's row-tiling algorithm and the full
//     quantized/temporally-accumulated accelerator model, and
//     Network.Compile + InferenceSession serve them; OpenDevicePool
//     shards batches bit-identically across replicated devices with
//     health scoring, quarantine/probe/readmit, and shard retry;
//   - architecture evaluation: CG/NG/Baseline configurations with
//     cycle/energy/area models for every workload in the paper;
//   - experiments: regeneration of every table and figure.
//
// See DESIGN.md for the spec-string grammar, the per-backend option set,
// capability semantics, and the error taxonomy, and the runnable programs
// under examples/ for typical usage.
package photofourier

import (
	"photofourier/internal/arch"
	"photofourier/internal/backend"
	"photofourier/internal/core"
	"photofourier/internal/experiments"
	"photofourier/internal/nets"
	"photofourier/internal/nn"
	"photofourier/internal/optics"
	"photofourier/internal/pool"
	"photofourier/internal/serve"
	"photofourier/internal/tensor"
	"photofourier/internal/tiling"
)

// Backend registry (engine construction from spec strings).
type (
	// Engine is an opened, immutable execution substrate: a configured
	// ConvEngine plus its backend identity, capabilities, and canonical
	// spec string.
	Engine = backend.Engine
	// EngineOption is a functional engine-construction option for
	// OpenWith (WithNTA, WithParallelism, ...).
	EngineOption = backend.Option
	// EngineConfig is the fully resolved operating point of an opened
	// engine.
	EngineConfig = backend.Config
	// EngineSpec is a parsed engine spec (name plus key=value params).
	EngineSpec = backend.Spec
	// Capabilities describes what a substrate can do (Plannable, Noisy,
	// Quantized, DefaultAperture); callers branch on it instead of
	// type-switching on concrete engines.
	Capabilities = nn.Capabilities
)

// Open builds an engine from a spec string:
//
//	name?key=val,key=val,...
//
// e.g. "rowtiled?aperture=256" or "accelerator?nta=16,adc=8,seed=7,workers=4".
// Registered names: reference, rowtiled, accelerator, accelerator-noisy,
// unplanned (see Backends). Unknown names yield ErrUnknownBackend;
// malformed or out-of-range specs yield ErrBadSpec.
func Open(spec string) (*Engine, error) { return backend.Open(spec) }

// OpenWith builds an engine by backend name and functional options —
// exact parity with Open's spec keys.
func OpenWith(name string, opts ...EngineOption) (*Engine, error) {
	return backend.OpenWith(name, opts...)
}

// Backends returns every registered backend name, sorted.
func Backends() []string { return backend.Names() }

// DescribeBackend returns a registered backend's capability advertisement.
func DescribeBackend(name string) (Capabilities, error) { return backend.Describe(name) }

// Functional engine-construction options (see Open for the spec-string
// equivalents).
var (
	// WithParallelism bounds the engine's worker pools (<= 0 = NumCPU).
	WithParallelism = backend.WithParallelism
	// WithAperture sets the 1D convolution aperture (PFCU waveguides).
	WithAperture = backend.WithAperture
	// WithColumnPad toggles zero-padded row tiles (exact Same equality).
	WithColumnPad = backend.WithColumnPad
	// WithNTA sets the temporal accumulation depth.
	WithNTA = backend.WithNTA
	// WithADCBits sets partial-sum readout precision (0 = full).
	WithADCBits = backend.WithADCBits
	// WithDACBits sets operand precision (0 = full).
	WithDACBits = backend.WithDACBits
	// WithReadoutSeed seeds the readout-noise substreams (0 = default).
	WithReadoutSeed = backend.WithReadoutSeed
	// WithReadoutNoise sets the per-readout sensing noise fraction.
	WithReadoutNoise = backend.WithReadoutNoise
	// WithNoiseFree zeroes every configurable noise source.
	WithNoiseFree = backend.WithNoiseFree
	// WithTiledPath routes the accelerator through exact 1D shots.
	WithTiledPath = backend.WithTiledPath
	// WithCalibPercentile sets percentile ADC range calibration.
	WithCalibPercentile = backend.WithCalibPercentile
	// WithFault arms the deterministic fault injector from a fault spec
	// (";"-separated mode:param, e.g. "shot:1e-3;drift:5e-5"; see
	// DESIGN.md's fault-model section). Empty disables injection.
	WithFault = backend.WithFault
	// WithFaultSeed seeds the fault injector's deterministic draws.
	WithFaultSeed = backend.WithFaultSeed
)

// Typed sentinel errors, wired for errors.Is across the whole stack.
var (
	// ErrUnknownBackend: Open/OpenWith named an unregistered backend.
	ErrUnknownBackend = backend.ErrUnknownBackend
	// ErrBadSpec: malformed spec string, inapplicable option, or
	// out-of-range value.
	ErrBadSpec = backend.ErrBadSpec
	// ErrStalePlan: a compiled LayerPlan/NetworkPlan no longer matches its
	// source weights or engine config; recompile.
	ErrStalePlan = nn.ErrStalePlan
	// ErrShapeMismatch: operand shapes are inconsistent with each other or
	// the operation.
	ErrShapeMismatch = nn.ErrShapeMismatch
	// ErrSessionClosed: Infer on a closed InferenceSession.
	ErrSessionClosed = serve.ErrSessionClosed
	// ErrBadOptions: invalid InferenceSession options (negative values).
	ErrBadOptions = serve.ErrBadOptions
	// ErrDeviceFault: an injected substrate fault (shot misfire past the
	// retry budget, device outage, unusable quarantined aperture) surfaced
	// through an engine call.
	ErrDeviceFault = core.ErrDeviceFault
	// ErrRecoveryExhausted: a served request failed every rung of the
	// session's recovery ladder (retry, split, failover); the chain still
	// matches ErrDeviceFault when an injected fault was the root cause.
	ErrRecoveryExhausted = serve.ErrRecoveryExhausted
	// ErrPoolExhausted: a DevicePool request found zero live devices
	// (every device quarantined); the chain matches ErrDeviceFault when
	// injected faults caused the quarantines.
	ErrPoolExhausted = pool.ErrPoolExhausted
	// ErrBadPool: malformed pool spec or invalid pool options.
	ErrBadPool = pool.ErrBadPool
)

// Accelerator configurations (paper Sec. V).
var (
	// ConfigCG returns the PhotoFourier-CG flagship (8 PFCUs, 14 nm).
	ConfigCG = arch.PhotoFourierCG
	// ConfigNG returns the PhotoFourier-NG next-generation design.
	ConfigNG = arch.PhotoFourierNG
	// ConfigBaseline returns the unoptimized single-PFCU system.
	ConfigBaseline = arch.Baseline
)

// Config is an accelerator configuration.
type Config = arch.Config

// NetPerf is the result of evaluating a network on a configuration.
type NetPerf = arch.NetPerf

// Evaluate runs the architecture model on a named workload ("AlexNet",
// "VGG-16", "ResNet-18", "ResNet-32", "ResNet-50", "ResNet-s",
// "CrossLight-CNN").
func Evaluate(cfg Config, network string) (NetPerf, error) {
	n, err := nets.ByName(network)
	if err != nil {
		return NetPerf{}, err
	}
	return arch.EvalNetwork(cfg, n)
}

// Functional convolution engines (paper Sec. III-IV, VI-A).
type (
	// ConvEngine executes CNN convolutions on a substrate.
	ConvEngine = nn.ConvEngine
	// LayerPlan is a compiled, reusable inference path for one convolution
	// layer (see DESIGN.md): weights are quantized, sign-split, and
	// spectrally latched once, and every call pays only
	// activation-dependent work, bit-identical to the unplanned engine.
	LayerPlan = nn.LayerPlan
)

// Whole-network compiled inference (see DESIGN.md).
type (
	// Network is the trainable CNN the accuracy studies run
	// (nn.ResNetS/SmallCNN/AlexNetS build the stock subjects).
	Network = nn.Network
	// NetworkPlan is a whole network compiled for repeated inference under
	// one engine: Network.Compile walks the module graph once, compiles
	// every convolution's LayerPlan eagerly, and streams activations
	// through pooled buffers — bit-identical to Network.Forward.
	NetworkPlan = nn.NetworkPlan
	// InferenceSession is the concurrency-safe serving front-end: it
	// micro-batches single-sample Infer(ctx, x) requests — honoring
	// context cancellation at admission and during the batch wait — and
	// runs them through one shared NetworkPlan.
	InferenceSession = serve.Session
	// SessionOptions configures an InferenceSession (batch size, deadline,
	// top-k width, retry/failover policy); negative values are rejected
	// with ErrBadOptions.
	SessionOptions = serve.Options
	// Prediction is the per-sample result of one served inference.
	Prediction = serve.Prediction
	// DevicePool shards batched inference by sample (or by output
	// channel) across N registry-opened devices, bit-identically to a
	// single engine, with per-device health scoring, quarantine/probe/
	// readmit, and retry of failed shards on other live devices (see
	// DESIGN.md's pool section).
	DevicePool = pool.DevicePool
	// PoolOptions configures a DevicePool (device specs, shard cap,
	// quarantine threshold, probe interval, shard strategy, decision log).
	PoolOptions = pool.Options
	// PoolDeviceHealth is one pool device's point-in-time health row, as
	// surfaced by DevicePool.DeviceHealth and InferenceSession.Health.
	PoolDeviceHealth = pool.DeviceHealth
)

// NewInferenceSession starts a micro-batching inference session over a
// compiled network plan. Options are validated here, once; negative values
// yield an error matching ErrBadOptions.
func NewInferenceSession(plan *NetworkPlan, opts SessionOptions) (*InferenceSession, error) {
	return serve.New(plan, opts)
}

// NewPoolInferenceSession starts a micro-batching inference session whose
// executor is a DevicePool instead of a single compiled plan: requests are
// sharded across the pool's live devices, the session's effective batch
// ceiling degrades with the live fraction, and Health carries per-device
// rows.
func NewPoolInferenceSession(p *DevicePool, opts SessionOptions) (*InferenceSession, error) {
	return serve.NewExecutor(p, opts)
}

// OpenDevicePool builds a device pool from a pool spec string:
//
//	pool?key=val,...,devices=spec|spec*N|...
//
// e.g. "pool?quarantine=2,devices=accelerator?workers=1*4".
// devices= must come last (device specs may themselves contain ',' and
// ';'); a *N suffix replicates one device spec. Prefix keys: maxshards,
// quarantine, probe, shard, debug. Malformed specs yield ErrBadPool;
// device specs are opened through the backend registry, so unknown names
// yield ErrUnknownBackend.
func OpenDevicePool(net *Network, spec string) (*DevicePool, error) {
	return pool.Open(net, spec)
}

// TilingPlan describes how one 2D convolution maps to 1D JTC shots.
type TilingPlan = tiling.Plan

// NewTilingPlan plans a HxW input with a KxK kernel on an nconv-sample 1D
// aperture; same selects Same (true) or Valid (false) 2D semantics.
func NewTilingPlan(h, w, k, nconv int, same bool) (*TilingPlan, error) {
	mode := tensor.Valid
	if same {
		mode = tensor.Same
	}
	return tiling.NewPlan(h, w, k, nconv, mode, false)
}

// JTCSystem is the physical-optics simulator (Fig. 2).
type JTCSystem = optics.System

// NewJTCSystem builds an optics simulator with the given field resolution
// and RNG seed.
func NewJTCSystem(samples int, seed int64) (*JTCSystem, error) {
	return optics.NewSystem(samples, seed)
}

// Experiment runs one named paper experiment (see ExperimentIDs).
func Experiment(id string, quick bool) (*experiments.Result, error) {
	return experiments.Run(id, experiments.Options{Quick: quick})
}

// ExperimentIDs lists every reproducible table/figure id.
func ExperimentIDs() []string { return experiments.IDs() }
