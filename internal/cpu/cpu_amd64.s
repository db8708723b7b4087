#include "textflag.h"

// func probeAVX512F() bool
//
// CPUID.1:ECX.OSXSAVE[bit 27], XCR0 enabling the SSE, AVX, opmask and both
// upper-ZMM state components (XCR0 & 0xE6 == 0xE6), and
// CPUID.(EAX=7,ECX=0):EBX.AVX512F[bit 16].
TEXT ·probeAVX512F(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JB    nozmm
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	BTL   $27, CX
	JCC   nozmm
	XORL  CX, CX
	XGETBV
	ANDL  $0xE6, AX
	CMPL  AX, $0xE6
	JNE   nozmm
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $16, BX
	JCC   nozmm
	MOVB  $1, ret+0(FP)

nozmm:
	RET
