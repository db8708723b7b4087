// Packed SSE2 kernels for the lockstep stage loops (see lockstep_amd64.go
// for the bit-identity argument). Plane layout: bin k, lane s at index
// k*8+s, so one bin row is 64 bytes = four XMM chunks of two lanes each.
// Every MULPD/ADDPD/SUBPD is the elementwise IEEE-754 double operation —
// two lanes per instruction, same per-lane sequence as the Go loops.
// Twiddles are splatted with MOVSD+UNPCKLPD (SSE2 only; MOVDDUP is SSE3,
// which the amd64 v1 baseline does not guarantee).

#include "textflag.h"

// func fusedFirstSSE2(re, im []float64, n int, inverse bool)
//
// Fused size-2/4 first stage over groups of four bin rows.
TEXT ·fusedFirstSSE2(SB), NOSPLIT, $0-57
	MOVQ    re_base+0(FP), SI
	MOVQ    im_base+24(FP), DI
	MOVQ    n+48(FP), BX
	SHLQ    $6, BX
	ADDQ    SI, BX
	MOVBLZX inverse+56(FP), AX
	TESTL   AX, AX
	JNZ     finvgroup

ffwdgroup:
	MOVQ $4, CX

ffwdchunk:
	// a1 = a+b, s1 = a-b, c1 = c+d, s2 = c-d, rot = (sdi, -sdr)
	MOVUPD (SI), X0       // ar
	MOVUPD 64(SI), X1     // br
	MOVAPD X0, X2
	ADDPD  X1, X2         // abr
	SUBPD  X1, X0         // sbr
	MOVUPD (DI), X1       // ai
	MOVUPD 64(DI), X3     // bi
	MOVAPD X1, X4
	ADDPD  X3, X4         // abi
	SUBPD  X3, X1         // sbi
	MOVUPD 128(SI), X3    // cr
	MOVUPD 192(SI), X5    // dr
	MOVAPD X3, X6
	ADDPD  X5, X6         // cdr
	SUBPD  X5, X3         // sdr
	MOVUPD 128(DI), X5    // ci
	MOVUPD 192(DI), X7    // di
	MOVAPD X5, X8
	ADDPD  X7, X8         // cdi
	SUBPD  X7, X5         // sdi
	MOVAPD X2, X7
	ADDPD  X6, X7
	MOVUPD X7, (SI)       // abr+cdr
	SUBPD  X6, X2
	MOVUPD X2, 128(SI)    // abr-cdr
	MOVAPD X4, X7
	ADDPD  X8, X7
	MOVUPD X7, (DI)       // abi+cdi
	SUBPD  X8, X4
	MOVUPD X4, 128(DI)    // abi-cdi
	MOVAPD X0, X7
	ADDPD  X5, X7
	MOVUPD X7, 64(SI)     // sbr+sdi
	SUBPD  X5, X0
	MOVUPD X0, 192(SI)    // sbr-sdi
	MOVAPD X1, X7
	SUBPD  X3, X7
	MOVUPD X7, 64(DI)     // sbi-sdr
	ADDPD  X3, X1
	MOVUPD X1, 192(DI)    // sbi+sdr
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   CX
	JNZ    ffwdchunk
	ADDQ   $192, SI
	ADDQ   $192, DI
	CMPQ   SI, BX
	JB     ffwdgroup
	RET

finvgroup:
	MOVQ $4, CX

finvchunk:
	// Same butterflies with rot = (-sdi, sdr).
	MOVUPD (SI), X0
	MOVUPD 64(SI), X1
	MOVAPD X0, X2
	ADDPD  X1, X2
	SUBPD  X1, X0
	MOVUPD (DI), X1
	MOVUPD 64(DI), X3
	MOVAPD X1, X4
	ADDPD  X3, X4
	SUBPD  X3, X1
	MOVUPD 128(SI), X3
	MOVUPD 192(SI), X5
	MOVAPD X3, X6
	ADDPD  X5, X6
	SUBPD  X5, X3
	MOVUPD 128(DI), X5
	MOVUPD 192(DI), X7
	MOVAPD X5, X8
	ADDPD  X7, X8
	SUBPD  X7, X5
	MOVAPD X2, X7
	ADDPD  X6, X7
	MOVUPD X7, (SI)
	SUBPD  X6, X2
	MOVUPD X2, 128(SI)
	MOVAPD X4, X7
	ADDPD  X8, X7
	MOVUPD X7, (DI)
	SUBPD  X8, X4
	MOVUPD X4, 128(DI)
	MOVAPD X0, X7
	SUBPD  X5, X7
	MOVUPD X7, 64(SI)     // sbr-sdi
	ADDPD  X5, X0
	MOVUPD X0, 192(SI)    // sbr+sdi
	MOVAPD X1, X7
	ADDPD  X3, X7
	MOVUPD X7, 64(DI)     // sbi+sdr
	SUBPD  X3, X1
	MOVUPD X1, 192(DI)    // sbi-sdr
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   CX
	JNZ    finvchunk
	ADDQ   $192, SI
	ADDQ   $192, DI
	CMPQ   SI, BX
	JB     finvgroup
	RET

// KBODY: one XMM chunk (two lanes) of the general-k fused stage-pair
// butterfly. Twiddle splats: X10/X11 = wA, X12/X13 = wB1, X14/X15 = wB2.
// Row pointers: R12 = &re[row a], R13 = &im[row a]; offsets R9 = half*64,
// R10 = size*64, R14 = (size+half)*64.
#define KBODY(D) \
	MOVUPD D(R12), X0           \ // ar
	MOVUPD D(R13), X1           \ // ai
	MOVUPD D(R12)(R9*1), X2     \ // br
	MOVUPD D(R13)(R9*1), X3     \ // bi
	MOVAPD X2, X4               \
	MULPD  X10, X4              \ // br*wAr
	MOVAPD X3, X5               \
	MULPD  X11, X5              \ // bi*wAi
	SUBPD  X5, X4               \ // tAr
	MULPD  X11, X2              \ // br*wAi
	MULPD  X10, X3              \ // bi*wAr
	ADDPD  X3, X2               \ // tAi
	MOVAPD X0, X5               \
	ADDPD  X4, X5               \ // a1r
	SUBPD  X4, X0               \ // b1r
	MOVAPD X1, X4               \
	ADDPD  X2, X4               \ // a1i
	SUBPD  X2, X1               \ // b1i
	MOVUPD D(R12)(R10*1), X2    \ // cr
	MOVUPD D(R13)(R10*1), X3    \ // ci
	MOVUPD D(R12)(R14*1), X6    \ // dr
	MOVUPD D(R13)(R14*1), X7    \ // di
	MOVAPD X6, X8               \
	MULPD  X10, X8              \ // dr*wAr
	MOVAPD X7, X9               \
	MULPD  X11, X9              \ // di*wAi
	SUBPD  X9, X8               \ // tA2r
	MULPD  X11, X6              \ // dr*wAi
	MULPD  X10, X7              \ // di*wAr
	ADDPD  X7, X6               \ // tA2i
	MOVAPD X2, X7               \
	ADDPD  X8, X7               \ // c1r
	SUBPD  X8, X2               \ // d1r
	MOVAPD X3, X8               \
	ADDPD  X6, X8               \ // c1i
	SUBPD  X6, X3               \ // d1i
	MOVAPD X7, X6               \
	MULPD  X12, X6              \ // c1r*wB1r
	MOVAPD X8, X9               \
	MULPD  X13, X9              \ // c1i*wB1i
	SUBPD  X9, X6               \ // tB1r
	MULPD  X13, X7              \ // c1r*wB1i
	MULPD  X12, X8              \ // c1i*wB1r
	ADDPD  X8, X7               \ // tB1i
	MOVAPD X5, X8               \
	ADDPD  X6, X8               \
	MOVUPD X8, D(R12)           \ // a = a1r+tB1r
	SUBPD  X6, X5               \
	MOVUPD X5, D(R12)(R10*1)    \ // c = a1r-tB1r
	MOVAPD X4, X8               \
	ADDPD  X7, X8               \
	MOVUPD X8, D(R13)           \ // a1i+tB1i
	SUBPD  X7, X4               \
	MOVUPD X4, D(R13)(R10*1)    \ // a1i-tB1i
	MOVAPD X2, X5               \
	MULPD  X14, X5              \ // d1r*wB2r
	MOVAPD X3, X6               \
	MULPD  X15, X6              \ // d1i*wB2i
	SUBPD  X6, X5               \ // tB2r
	MULPD  X15, X2              \ // d1r*wB2i
	MULPD  X14, X3              \ // d1i*wB2r
	ADDPD  X3, X2               \ // tB2i
	MOVAPD X0, X6               \
	ADDPD  X5, X6               \
	MOVUPD X6, D(R12)(R9*1)     \ // b = b1r+tB2r
	SUBPD  X5, X0               \
	MOVUPD X0, D(R12)(R14*1)    \ // d = b1r-tB2r
	MOVAPD X1, X6               \
	ADDPD  X2, X6               \
	MOVUPD X6, D(R13)(R9*1)     \ // b1i+tB2i
	SUBPD  X2, X1               \
	MOVUPD X1, D(R13)(R14*1)    // b1i-tB2i

// func fusedPairSSE2(re, im []float64, tw []complex128, n, size int)
//
// One fused radix-4-style stage pair (stages size and 2*size). The k = 0
// columns use unit stage-A/B1 twiddles exactly like the Go special case;
// general k splats wA = tw[k*stepA], wB1 = tw[k*stepB], wB2 =
// tw[(k+half)*stepB] = tw[k*stepB + n/4].
TEXT ·fusedPairSSE2(SB), NOSPLIT, $0-88
	MOVQ re_base+0(FP), SI
	MOVQ im_base+24(FP), DI
	MOVQ size+80(FP), R10
	SHLQ $6, R10              // size*64
	MOVQ R10, R9
	SHRQ $1, R9               // half*64
	LEAQ (R9)(R10*1), R14     // (size+half)*64
	MOVQ size+80(FP), CX
	BSFQ CX, CX               // log2(size)
	MOVQ n+72(FP), DX
	SHLQ $4, DX
	SHRQ CX, DX               // stepA*16 bytes
	MOVQ DX, R8
	SHRQ $1, R8               // stepB*16 bytes
	MOVQ n+72(FP), R11
	SHLQ $2, R11              // (n/4)*16 bytes: wB2 offset from wB1
	XORQ BX, BX               // start row byte offset

pairouter:
	// twB0 = tw[n/4], used only by the k = 0 column.
	MOVQ     tw_base+48(FP), AX
	MOVSD    (AX)(R11*1), X14
	MOVSD    8(AX)(R11*1), X15
	UNPCKLPD X14, X14
	UNPCKLPD X15, X15
	LEAQ     (SI)(BX*1), R12
	LEAQ     (DI)(BX*1), R13
	MOVQ     BX, R15
	ADDQ     R9, R15          // k-loop end offset
	MOVQ     $4, AX

pairk0:
	// a1 = a+b, b1 = a-b, c1 = c+d, d1 = c-d;
	// out a/c = a1±c1, tB = d1*twB0, out b/d = b1±tB.
	MOVUPD (R12), X0
	MOVUPD (R12)(R9*1), X1
	MOVAPD X0, X2
	ADDPD  X1, X2             // a1r
	SUBPD  X1, X0             // b1r
	MOVUPD (R13), X1
	MOVUPD (R13)(R9*1), X3
	MOVAPD X1, X4
	ADDPD  X3, X4             // a1i
	SUBPD  X3, X1             // b1i
	MOVUPD (R12)(R10*1), X3
	MOVUPD (R12)(R14*1), X5
	MOVAPD X3, X6
	ADDPD  X5, X6             // c1r
	SUBPD  X5, X3             // d1r
	MOVUPD (R13)(R10*1), X5
	MOVUPD (R13)(R14*1), X7
	MOVAPD X5, X8
	ADDPD  X7, X8             // c1i
	SUBPD  X7, X5             // d1i
	MOVAPD X2, X7
	ADDPD  X6, X7
	MOVUPD X7, (R12)          // a1r+c1r
	SUBPD  X6, X2
	MOVUPD X2, (R12)(R10*1)   // a1r-c1r
	MOVAPD X4, X7
	ADDPD  X8, X7
	MOVUPD X7, (R13)          // a1i+c1i
	SUBPD  X8, X4
	MOVUPD X4, (R13)(R10*1)   // a1i-c1i
	MOVAPD X3, X2
	MULPD  X14, X2            // d1r*w0r
	MOVAPD X5, X4
	MULPD  X15, X4            // d1i*w0i
	SUBPD  X4, X2             // tBr
	MULPD  X15, X3            // d1r*w0i
	MULPD  X14, X5            // d1i*w0r
	ADDPD  X5, X3             // tBi
	MOVAPD X0, X4
	ADDPD  X2, X4
	MOVUPD X4, (R12)(R9*1)    // b1r+tBr
	SUBPD  X2, X0
	MOVUPD X0, (R12)(R14*1)   // b1r-tBr
	MOVAPD X1, X4
	ADDPD  X3, X4
	MOVUPD X4, (R13)(R9*1)    // b1i+tBi
	SUBPD  X3, X1
	MOVUPD X1, (R13)(R14*1)   // b1i-tBi
	ADDQ   $16, R12
	ADDQ   $16, R13
	DECQ   AX
	JNZ    pairk0

	// R12/R13 advanced 64 bytes in the k0 chunk loop: already at k = 1.
	ADDQ $64, BX
	MOVQ tw_base+48(FP), CX
	LEAQ (CX)(DX*1), AX       // wA ptr = &tw[stepA]
	ADDQ R8, CX               // wB1 ptr = &tw[stepB]
	CMPQ BX, R15
	JGE  pairnext

pairkloop:
	MOVSD    (AX), X10
	MOVSD    8(AX), X11
	UNPCKLPD X10, X10
	UNPCKLPD X11, X11
	MOVSD    (CX), X12
	MOVSD    8(CX), X13
	UNPCKLPD X12, X12
	UNPCKLPD X13, X13
	MOVSD    (CX)(R11*1), X14
	MOVSD    8(CX)(R11*1), X15
	UNPCKLPD X14, X14
	UNPCKLPD X15, X15
	KBODY(0)
	KBODY(16)
	KBODY(32)
	KBODY(48)
	ADDQ     $64, BX
	ADDQ     $64, R12
	ADDQ     $64, R13
	ADDQ     DX, AX
	ADDQ     R8, CX
	CMPQ     BX, R15
	JL       pairkloop

pairnext:
	// BX == start+half*64; next start offset = start + 2*size*64.
	ADDQ R10, BX
	ADDQ R10, BX
	SUBQ R9, BX
	MOVQ n+72(FP), R12
	SHLQ $6, R12
	CMPQ BX, R12
	JL   pairouter
	RET

// F2BODY: one XMM chunk of the final radix-2 butterfly. X10/X11 = twiddle
// splat; R12/R13 = row-k pointers; R9 = half*64.
#define F2BODY(D) \
	MOVUPD D(R12)(R9*1), X0     \ // hr
	MOVUPD D(R13)(R9*1), X1     \ // hi
	MOVAPD X0, X2               \
	MULPD  X10, X2              \ // hr*wr
	MOVAPD X1, X3               \
	MULPD  X11, X3              \ // hi*wi
	SUBPD  X3, X2               \ // br
	MULPD  X11, X0              \ // hr*wi
	MULPD  X10, X1              \ // hi*wr
	ADDPD  X1, X0               \ // bi
	MOVUPD D(R12), X1           \ // ar
	MOVAPD X1, X3               \
	ADDPD  X2, X3               \
	MOVUPD X3, D(R12)           \ // ar+br
	SUBPD  X2, X1               \
	MOVUPD X1, D(R12)(R9*1)     \ // ar-br
	MOVUPD D(R13), X1           \ // ai
	MOVAPD X1, X3               \
	ADDPD  X0, X3               \
	MOVUPD X3, D(R13)           \ // ai+bi
	SUBPD  X0, X1               \
	MOVUPD X1, D(R13)(R9*1)     // ai-bi

// func final2(re, im []float64, tw []complex128, n int)
//
// Final radix-2 stage (size == n), run only when log2(n) is odd.
TEXT ·final2(SB), NOSPLIT, $0-80
	MOVQ re_base+0(FP), SI
	MOVQ im_base+24(FP), DI
	MOVQ n+72(FP), R9
	SHLQ $5, R9               // half*64
	MOVQ SI, R12
	MOVQ DI, R13
	MOVQ $4, AX

f2k0:
	MOVUPD (R12), X0
	MOVUPD (R12)(R9*1), X1
	MOVAPD X0, X2
	ADDPD  X1, X2
	MOVUPD X2, (R12)          // ar+br
	SUBPD  X1, X0
	MOVUPD X0, (R12)(R9*1)    // ar-br
	MOVUPD (R13), X0
	MOVUPD (R13)(R9*1), X1
	MOVAPD X0, X2
	ADDPD  X1, X2
	MOVUPD X2, (R13)
	SUBPD  X1, X0
	MOVUPD X0, (R13)(R9*1)
	ADDQ   $16, R12
	ADDQ   $16, R13
	DECQ   AX
	JNZ    f2k0

	// R12/R13 already at row k = 1.
	MOVQ tw_base+48(FP), AX
	ADDQ $16, AX              // &tw[1]
	MOVQ R9, R15
	MOVQ $64, BX
	CMPQ BX, R15
	JGE  f2done

f2loop:
	MOVSD    (AX), X10
	MOVSD    8(AX), X11
	UNPCKLPD X10, X10
	UNPCKLPD X11, X11
	F2BODY(0)
	F2BODY(16)
	F2BODY(32)
	F2BODY(48)
	ADDQ     $64, BX
	ADDQ     $64, R12
	ADDQ     $64, R13
	ADDQ     $16, AX
	CMPQ     BX, R15
	JL       f2loop

f2done:
	RET

// func bitrevSwapSSE2(re, im []float64, rev []int)
//
// Bit-reversal row permutation: swaps 64-byte bin rows i and rev[i] of
// both planes when i < rev[i].
TEXT ·bitrevSwapSSE2(SB), NOSPLIT, $0-72
	MOVQ re_base+0(FP), SI
	MOVQ im_base+24(FP), DI
	MOVQ rev_base+48(FP), R8
	MOVQ rev_len+56(FP), R9
	XORQ CX, CX
	CMPQ CX, R9
	JGE  bdone

bloop:
	MOVQ (R8)(CX*8), AX
	CMPQ CX, AX
	JGE  bnext
	MOVQ CX, R12
	SHLQ $6, R12
	MOVQ AX, R13
	SHLQ $6, R13
	LEAQ (SI)(R12*1), R10
	LEAQ (SI)(R13*1), R11
	MOVUPD (R10), X0
	MOVUPD (R11), X1
	MOVUPD X1, (R10)
	MOVUPD X0, (R11)
	MOVUPD 16(R10), X2
	MOVUPD 16(R11), X3
	MOVUPD X3, 16(R10)
	MOVUPD X2, 16(R11)
	MOVUPD 32(R10), X4
	MOVUPD 32(R11), X5
	MOVUPD X5, 32(R10)
	MOVUPD X4, 32(R11)
	MOVUPD 48(R10), X6
	MOVUPD 48(R11), X7
	MOVUPD X7, 48(R10)
	MOVUPD X6, 48(R11)
	LEAQ (DI)(R12*1), R10
	LEAQ (DI)(R13*1), R11
	MOVUPD (R10), X0
	MOVUPD (R11), X1
	MOVUPD X1, (R10)
	MOVUPD X0, (R11)
	MOVUPD 16(R10), X2
	MOVUPD 16(R11), X3
	MOVUPD X3, 16(R10)
	MOVUPD X2, 16(R11)
	MOVUPD 32(R10), X4
	MOVUPD 32(R11), X5
	MOVUPD X5, 32(R10)
	MOVUPD X4, 32(R11)
	MOVUPD 48(R10), X6
	MOVUPD 48(R11), X7
	MOVUPD X7, 48(R10)
	MOVUPD X6, 48(R11)

bnext:
	INCQ CX
	CMPQ CX, R9
	JL   bloop

bdone:
	RET

// RRBODY: one XMM chunk of the forward real-transform recombination.
// X10/X11 = twiddle splat, X12 = 0.5 splat; R12/R13 = row-k pointers,
// R14/R15 = row-(hm-k) pointers.
#define RRBODY(D) \
	MOVUPD D(R12), X0           \ // zkr
	MOVUPD D(R14), X1           \ // zcr
	MOVAPD X0, X2               \
	ADDPD  X1, X2               \
	MULPD  X12, X2              \ // er
	MOVAPD X1, X3               \
	SUBPD  X0, X3               \
	MULPD  X12, X3              \ // oi
	MOVUPD D(R13), X4           \ // zki
	MOVUPD D(R15), X5           \ // zci
	MOVAPD X4, X6               \
	SUBPD  X5, X6               \
	MULPD  X12, X6              \ // ei
	ADDPD  X5, X4               \
	MULPD  X12, X4              \ // or
	MOVAPD X4, X5               \
	MULPD  X10, X5              \ // or*wr
	MOVAPD X3, X7               \
	MULPD  X11, X7              \ // oi*wi
	SUBPD  X7, X5               \ // wor
	MULPD  X11, X4              \ // or*wi
	MULPD  X10, X3              \ // oi*wr
	ADDPD  X3, X4               \ // woi
	MOVAPD X2, X0               \
	ADDPD  X5, X0               \
	MOVUPD X0, D(R12)           \ // er+wor
	SUBPD  X5, X2               \
	MOVUPD X2, D(R14)           \ // er-wor
	MOVAPD X6, X0               \
	ADDPD  X4, X0               \
	MOVUPD X0, D(R13)           \ // ei+woi
	SUBPD  X6, X4               \
	MOVUPD X4, D(R15)           // woi-ei

// func rfftRecomb(sre, sim []float64, w []complex128, hm int)
//
// Post-transform recombination of the forward real transform, plus the
// mid-bin negation. MULPD by 0.5 replaces the scalar /2: both are exact
// scalings by 2^-1 with identical rounding for every input.
TEXT ·rfftRecomb(SB), NOSPLIT, $0-80
	MOVQ sre_base+0(FP), SI
	MOVQ sim_base+24(FP), DI
	MOVQ hm+72(FP), R9
	SHLQ $6, R9               // hm*64
	MOVQ SI, R12
	MOVQ DI, R13
	MOVQ $4, AX

rr0chunk:
	MOVUPD (R12), X0          // z0r
	MOVUPD (R13), X1          // z0i
	MOVAPD X0, X2
	SUBPD  X1, X2
	MOVUPD X2, (R12)(R9*1)    // rH = z0r-z0i
	ADDPD  X1, X0
	MOVUPD X0, (R12)          // r0 = z0r+z0i
	XORPD  X3, X3
	MOVUPD X3, (R13)          // i0 = 0
	MOVUPD X3, (R13)(R9*1)    // iH = 0
	ADDQ   $16, R12
	ADDQ   $16, R13
	DECQ   AX
	JNZ    rr0chunk

	// R12/R13 now at row k = 1.
	MOVQ     $0x3FE0000000000000, AX
	MOVQ     AX, X12
	UNPCKLPD X12, X12
	LEAQ     -64(SI)(R9*1), R14
	LEAQ     -64(DI)(R9*1), R15
	MOVQ     w_base+48(FP), AX
	ADDQ     $16, AX          // &w[1]
	MOVQ     R9, R8
	SHRQ     $1, R8           // hm*32: k-loop limit and mid-row offset
	MOVQ     $64, BX
	CMPQ     BX, R8
	JGE      rrmid

rrkloop:
	MOVSD    (AX), X10
	MOVSD    8(AX), X11
	UNPCKLPD X10, X10
	UNPCKLPD X11, X11
	RRBODY(0)
	RRBODY(16)
	RRBODY(32)
	RRBODY(48)
	ADDQ     $64, BX
	ADDQ     $64, R12
	ADDQ     $64, R13
	SUBQ     $64, R14
	SUBQ     $64, R15
	ADDQ     $16, AX
	CMPQ     BX, R8
	JL       rrkloop

rrmid:
	CMPQ R9, $128
	JL   rrdone
	MOVQ     $0x8000000000000000, AX
	MOVQ     AX, X10
	UNPCKLPD X10, X10
	LEAQ     (DI)(R8*1), R12
	MOVUPD   (R12), X0
	XORPD    X10, X0
	MOVUPD   X0, (R12)
	MOVUPD   16(R12), X1
	XORPD    X10, X1
	MOVUPD   X1, 16(R12)
	MOVUPD   32(R12), X2
	XORPD    X10, X2
	MOVUPD   X2, 32(R12)
	MOVUPD   48(R12), X3
	XORPD    X10, X3
	MOVUPD   X3, 48(R12)

rrdone:
	RET

// IRBODY: one XMM chunk of the inverse real-transform recombination.
// Same register layout as RRBODY.
#define IRBODY(D) \
	MOVUPD D(R12), X0           \ // pkr
	MOVUPD D(R14), X1           \ // pcr
	MOVAPD X0, X2               \
	ADDPD  X1, X2               \
	MULPD  X12, X2              \ // er
	SUBPD  X1, X0               \
	MULPD  X12, X0              \ // dr
	MOVUPD D(R13), X3           \ // pki
	MOVUPD D(R15), X4           \ // pci
	MOVAPD X3, X5               \
	SUBPD  X4, X5               \
	MULPD  X12, X5              \ // ei
	ADDPD  X4, X3               \
	MULPD  X12, X3              \ // di
	MOVAPD X0, X4               \
	MULPD  X10, X4              \ // dr*wr
	MOVAPD X3, X6               \
	MULPD  X11, X6              \ // di*wi
	ADDPD  X6, X4               \ // or
	MULPD  X10, X3              \ // di*wr
	MULPD  X11, X0              \ // dr*wi
	SUBPD  X0, X3               \ // oi
	MOVAPD X2, X0               \
	SUBPD  X3, X0               \
	MOVUPD X0, D(R12)           \ // er-oi
	ADDPD  X3, X2               \
	MOVUPD X2, D(R14)           \ // er+oi
	MOVAPD X5, X0               \
	ADDPD  X4, X0               \
	MOVUPD X0, D(R13)           \ // ei+or
	SUBPD  X5, X4               \
	MOVUPD X4, D(R15)           // or-ei

// func irfftRecombSSE2(sre, sim []float64, w []complex128, hm int)
//
// Pre-transform recombination of the inverse real transform, plus the
// mid-bin negation.
TEXT ·irfftRecombSSE2(SB), NOSPLIT, $0-80
	MOVQ     sre_base+0(FP), SI
	MOVQ     sim_base+24(FP), DI
	MOVQ     hm+72(FP), R9
	SHLQ     $6, R9           // hm*64
	MOVQ     $0x3FE0000000000000, AX
	MOVQ     AX, X12
	UNPCKLPD X12, X12
	MOVQ     SI, R12
	MOVQ     DI, R13
	MOVQ     $4, AX

ir0chunk:
	MOVUPD (R12), X0          // p0r
	MOVUPD (R12)(R9*1), X1    // phr
	MOVAPD X0, X2
	ADDPD  X1, X2
	MULPD  X12, X2            // er
	SUBPD  X1, X0
	MULPD  X12, X0            // dr
	MOVUPD (R13), X3          // p0i
	MOVUPD (R13)(R9*1), X4    // phi
	MOVAPD X3, X5
	SUBPD  X4, X5
	MULPD  X12, X5            // ei
	ADDPD  X4, X3
	MULPD  X12, X3            // di
	SUBPD  X3, X2
	MOVUPD X2, (R12)          // er-di
	ADDPD  X0, X5
	MOVUPD X5, (R13)          // ei+dr
	ADDQ   $16, R12
	ADDQ   $16, R13
	DECQ   AX
	JNZ    ir0chunk

	// R12/R13 now at row k = 1.
	LEAQ -64(SI)(R9*1), R14
	LEAQ -64(DI)(R9*1), R15
	MOVQ w_base+48(FP), AX
	ADDQ $16, AX              // &w[1]
	MOVQ R9, R8
	SHRQ $1, R8
	MOVQ $64, BX
	CMPQ BX, R8
	JGE  irmid

irkloop:
	MOVSD    (AX), X10
	MOVSD    8(AX), X11
	UNPCKLPD X10, X10
	UNPCKLPD X11, X11
	IRBODY(0)
	IRBODY(16)
	IRBODY(32)
	IRBODY(48)
	ADDQ     $64, BX
	ADDQ     $64, R12
	ADDQ     $64, R13
	SUBQ     $64, R14
	SUBQ     $64, R15
	ADDQ     $16, AX
	CMPQ     BX, R8
	JL       irkloop

irmid:
	CMPQ R9, $128
	JL   irdone
	MOVQ     $0x8000000000000000, AX
	MOVQ     AX, X10
	UNPCKLPD X10, X10
	LEAQ     (DI)(R8*1), R12
	MOVUPD   (R12), X0
	XORPD    X10, X0
	MOVUPD   X0, (R12)
	MOVUPD   16(R12), X1
	XORPD    X10, X1
	MOVUPD   X1, 16(R12)
	MOVUPD   32(R12), X2
	XORPD    X10, X2
	MOVUPD   X2, 32(R12)
	MOVUPD   48(R12), X3
	XORPD    X10, X3
	MOVUPD   X3, 48(R12)

irdone:
	RET

// func gatherMulPair(dre, dim []float64, bins int, xr0, xi0 []float64,
//	k0 []complex128, xr1, xi1 []float64, k1 []complex128, acc bool)
//
// Kernel-spectrum multiply for one lane pair: per bin, gathers the two
// lanes' spectrum and kernel values into XMM pairs (MOVSD low, MOVHPD
// high) and writes the two adjacent lane entries of the bin-major work
// rows with one 16-byte store per plane. With acc set, each product is
// added to the entries already in the rows before the store.
TEXT ·gatherMulPair(SB), NOSPLIT, $0-201
	MOVQ    dre_base+0(FP), SI
	MOVQ    dim_base+24(FP), DI
	MOVQ    bins+48(FP), CX
	MOVQ    xr0_base+56(FP), R8
	MOVQ    xi0_base+80(FP), R9
	MOVQ    k0_base+104(FP), R12
	MOVQ    xr1_base+128(FP), R10
	MOVQ    xi1_base+152(FP), R11
	MOVQ    k1_base+176(FP), R13
	MOVBQZX acc+200(FP), AX
	TESTQ   CX, CX
	JZ      gdone

gloop:
	MOVSD  (R8), X0           // xr pair
	MOVHPD (R10), X0
	MOVSD  (R9), X1           // xi pair
	MOVHPD (R11), X1
	MOVSD  (R12), X2          // kr pair
	MOVHPD (R13), X2
	MOVSD  8(R12), X3         // ki pair
	MOVHPD 8(R13), X3
	MOVAPD X0, X4
	MULPD  X2, X4             // xr*kr
	MOVAPD X1, X5
	MULPD  X3, X5             // xi*ki
	SUBPD  X5, X4             // xr*kr - xi*ki
	MULPD  X3, X0             // xr*ki
	MULPD  X2, X1             // xi*kr
	ADDPD  X1, X0             // xr*ki + xi*kr
	TESTQ  AX, AX
	JZ     gstore
	MOVUPD (SI), X5
	ADDPD  X5, X4             // row + re product
	MOVUPD (DI), X1
	ADDPD  X1, X0             // row + im product

gstore:
	MOVUPD X4, (SI)
	MOVUPD X0, (DI)
	ADDQ   $8, R8
	ADDQ   $8, R9
	ADDQ   $8, R10
	ADDQ   $8, R11
	ADDQ   $16, R12
	ADDQ   $16, R13
	ADDQ   $64, SI
	ADDQ   $64, DI
	DECQ   CX
	JNZ    gloop

gdone:
	RET

// CSKERNEL: loads the channel's kernel bin at (DX) and broadcasts it:
// kr in both halves of X9, ki in both halves of X8.
#define CSKERNEL \
	MOVUPD   (DX), X8 \ // kr, ki
	MOVAPD   X8, X9   \
	UNPCKLPD X9, X9   \ // kr, kr
	UNPCKHPD X8, X8   // ki, ki

// CSPAIRSET: the first channel's products for lanes o/8 and o/8+1 of the
// bin row (xr at o(AX), xi at o(R15)): xr*kr - xi*ki into ar, xr*ki +
// xi*kr into ai.
#define CSPAIRSET(o, ar, ai) \
	MOVUPD o(AX), X10  \ // xr
	MOVUPD o(R15), X11 \ // xi
	MOVAPD X10, ar     \
	MULPD  X9, ar      \ // xr*kr
	MOVAPD X11, X12    \
	MULPD  X8, X12     \ // xi*ki
	SUBPD  X12, ar     \ // xr*kr - xi*ki
	MULPD  X8, X10     \ // xr*ki
	MULPD  X9, X11     \ // xi*kr
	ADDPD  X11, X10    \ // xr*ki + xi*kr
	MOVAPD X10, ai

// CSPAIRADD: a later channel's products for the same two lanes, added to
// the running sums ar/ai as product + sum.
#define CSPAIRADD(o, ar, ai) \
	MOVUPD o(AX), X10  \ // xr
	MOVUPD o(R15), X11 \ // xi
	MOVAPD X10, X12    \
	MULPD  X9, X12     \ // xr*kr
	MOVAPD X11, X13    \
	MULPD  X8, X13     \ // xi*ki
	SUBPD  X13, X12    \ // xr*kr - xi*ki
	MULPD  X8, X10     \ // xr*ki
	MULPD  X9, X11     \ // xi*kr
	ADDPD  X11, X10    \ // xr*ki + xi*kr
	ADDPD  ar, X12     \ // product + running sum
	MOVAPD X12, ar     \
	ADDPD  ai, X10     \
	MOVAPD X10, ai

// func chunkMulSSE2(dre, dim []float64, bins int, xr, xi []float64, k []*complex128, acc bool)
//
// SSE2 twin of chunkMulAVX512: one bin row at a time, its eight lanes'
// sums in X0-X3 (re) and X4-X7 (im) across the channels, with the same
// per-lane op sequence and operand order.
TEXT ·chunkMulSSE2(SB), NOSPLIT, $0-129
	MOVQ dre_base+0(FP), SI
	MOVQ dim_base+24(FP), DI
	MOVQ bins+48(FP), CX
	MOVQ xr_base+56(FP), R8
	MOVQ xi_base+80(FP), R9
	MOVQ k_base+104(FP), R10
	MOVQ k_len+112(FP), R11
	LEAQ (R10)(R11*8), R11    // end of the kernel table
	MOVQ CX, R12
	SHLQ $6, R12              // channel stride: bins rows of 64 bytes
	XORQ BX, BX               // row*64
	TESTQ CX, CX
	JZ   csdone

csrow:
	MOVQ BX, R13
	SHRQ $2, R13              // kernel bin of the row, *16
	MOVQ R10, R14             // kernel table entry of the channel
	MOVQ (R14), DX
	ADDQ R13, DX
	LEAQ (R8)(BX*1), AX       // channel's xr row
	LEAQ (R9)(BX*1), R15      // channel's xi row
	CMPB acc+128(FP), $0
	JEQ  csset
	MOVUPD 0(SI)(BX*1), X0
	MOVUPD 16(SI)(BX*1), X1
	MOVUPD 32(SI)(BX*1), X2
	MOVUPD 48(SI)(BX*1), X3
	MOVUPD 0(DI)(BX*1), X4
	MOVUPD 16(DI)(BX*1), X5
	MOVUPD 32(DI)(BX*1), X6
	MOVUPD 48(DI)(BX*1), X7
	JMP  csadd                // channel 0 adds onto the planes' row

csset:
	CSKERNEL
	CSPAIRSET(0, X0, X4)
	CSPAIRSET(16, X1, X5)
	CSPAIRSET(32, X2, X6)
	CSPAIRSET(48, X3, X7)

csch:
	ADDQ $8, R14
	CMPQ R14, R11
	JEQ  csstore
	MOVQ (R14), DX
	ADDQ R13, DX
	ADDQ R12, AX
	ADDQ R12, R15

csadd:
	CSKERNEL
	CSPAIRADD(0, X0, X4)
	CSPAIRADD(16, X1, X5)
	CSPAIRADD(32, X2, X6)
	CSPAIRADD(48, X3, X7)
	JMP  csch

csstore:
	MOVUPD X0, 0(SI)(BX*1)
	MOVUPD X1, 16(SI)(BX*1)
	MOVUPD X2, 32(SI)(BX*1)
	MOVUPD X3, 48(SI)(BX*1)
	MOVUPD X4, 0(DI)(BX*1)
	MOVUPD X5, 16(DI)(BX*1)
	MOVUPD X6, 32(DI)(BX*1)
	MOVUPD X7, 48(DI)(BX*1)
	ADDQ $64, BX
	DECQ CX
	JNZ  csrow

csdone:
	RET
