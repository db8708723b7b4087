//go:build amd64

package cpu_test

import (
	"os"
	"strings"
	"testing"

	"photofourier/internal/cpu"
	"photofourier/internal/fourier"
	"photofourier/internal/quant"
)

// TestKernelDispatchMatchesCPUInfo pins the probe, and the kernel family
// each package picks from it at init, to the kernel's view of the CPU:
// Linux lists avx512f in /proc/cpuinfo only when the CPU has it and the
// kernel enables the ZMM state. A broken CPUID/XGETBV check would
// otherwise fall back unnoticed, since every family produces the same
// bits.
func TestKernelDispatchMatchesCPUInfo(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	flags, found := "", false
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags, found = value, true
			break
		}
	}
	if !found {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	want := false
	for _, f := range strings.Fields(flags) {
		if f == "avx512f" {
			want = true
		}
	}
	if got := cpu.HasAVX512F(); got != want {
		t.Fatalf("HasAVX512F() = %v, /proc/cpuinfo flags imply %v", got, want)
	}
	lockstep, converters := "sse2", "go"
	if want {
		lockstep, converters = "avx512f", "avx512f"
	}
	if got := fourier.LockstepKernels(); got != lockstep {
		t.Errorf("fourier.LockstepKernels() = %q, want %q", got, lockstep)
	}
	if got := quant.ConverterKernels(); got != converters {
		t.Errorf("quant.ConverterKernels() = %q, want %q", got, converters)
	}
	t.Logf("lockstep kernels: %s, converter kernels: %s", fourier.LockstepKernels(), quant.ConverterKernels())
}
