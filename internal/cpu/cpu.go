// Package cpu probes the host CPU, once at start-up, for the instruction
// set the simulator's packed kernels use: the lockstep FFT kernels of
// internal/fourier and the converter kernels of internal/quant both read
// HasAVX512F, so the module has one CPUID probe. Nothing overrides the
// probe's answer.
package cpu
