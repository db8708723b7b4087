//go:build amd64

package cpu

// hasAVX512F is set once, at package init, and never written again.
var hasAVX512F = probeAVX512F()

// HasAVX512F reports whether the CPU has AVX512F and the OS saves its
// register state: CPUID.1:ECX.OSXSAVE, XCR0 & 0xE6 == 0xE6 (the OS saves
// the SSE, AVX, opmask and full ZMM state) and CPUID.7.0:EBX.AVX512F.
// Kernels gated on it use AVX512F instructions only (plus VZEROUPPER),
// because that is all the probe checks.
func HasAVX512F() bool { return hasAVX512F }

func probeAVX512F() bool
