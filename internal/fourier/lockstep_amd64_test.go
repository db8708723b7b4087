//go:build amd64

package fourier

import (
	"os"
	"strings"
	"testing"
)

// packedKernelFamilies lists the amd64 kernel families. final2 and
// rfftRecomb keep their single SSE2 body in both, as in production.
func packedKernelFamilies() []kernelFamily {
	sse2 := kernelFamily{
		name:        "sse2",
		bitrevSwap:  bitrevSwapSSE2,
		fusedFirst:  fusedFirstSSE2,
		fusedPair:   fusedPairSSE2,
		final2:      final2,
		rfftRecomb:  rfftRecomb,
		irfftRecomb: irfftRecombSSE2,
		mulGroup:    gatherMulGroupSSE2,
	}
	avx512 := kernelFamily{
		name:        "avx512",
		bitrevSwap:  bitrevSwapAVX512,
		fusedFirst:  fusedFirstAVX512,
		fusedPair:   fusedPairAVX512,
		final2:      final2,
		rfftRecomb:  rfftRecomb,
		irfftRecomb: irfftRecombAVX512,
		mulGroup:    gatherMulGroupAVX512,
	}
	if !useAVX512 {
		avx512.missing = "no AVX-512F, or the OS does not save ZMM state"
	}
	return []kernelFamily{sse2, avx512}
}

// TestLockstepDispatchMatchesCPUInfo pins the init-time family choice to
// the kernel's view of the CPU: Linux lists avx512f in /proc/cpuinfo only
// when the CPU has it and the kernel enables the ZMM state. A broken
// CPUID/XGETBV check would otherwise fall back to SSE2 unnoticed, since
// both families produce the same bits.
func TestLockstepDispatchMatchesCPUInfo(t *testing.T) {
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
	want := "sse2"
	for _, f := range strings.Fields(flags) {
		if f == "avx512f" {
			want = "avx512f"
		}
	}
	got := LockstepKernels()
	if got != want {
		t.Fatalf("LockstepKernels() = %q, /proc/cpuinfo flags imply %q", got, want)
	}
	t.Logf("lockstep kernels: %s", got)
}
