// AVX-512F twins of the lockstep stage kernels in lockstep_amd64.s (see
// lockstep_amd64.go for the bit-identity argument). Plane layout: bin k,
// lane s at index k*8+s, so one 64-byte bin row is exactly one ZMM
// register: each body below is its SSE2 twin's four XMM chunks as one ZMM
// body, with the same per-lane op sequence and the same operand order.
// Multiplies and adds stay separate VMULPD and VADDPD/VSUBPD (never an
// FMA), /2 stays a multiply by 0.5, and only AVX512F instructions are used
// (KXNORW for gather masks, VPXORQ for the sign flip), because that is all
// cpu.HasAVX512F checks. Every kernel ends with VZEROUPPER. The group
// multiply has no SSE2 twin body: it replaces four gatherMulPair calls and
// runs their per-lane multiply, moving data with shuffles and gathers,
// which copy bits unchanged. The full-chunk multiply's twin is
// chunkMulSSE2; its broadcasts copy bits unchanged too. The pack, the
// copy-out and the window add have no SSE2 twin: their Go loops
// (packGeneric, unpackGeneric, addWindow) are the oracle and the SSE2
// hosts' path, and only the window add computes (addWindow's two-term
// normalization and its add, or 0 + y for a first writer).

#include "textflag.h"

// func fusedFirstAVX512(re, im []float64, n int, inverse bool)
//
// Fused size-2/4 first stage over groups of four bin rows.
TEXT ·fusedFirstAVX512(SB), NOSPLIT, $0-57
	MOVQ    re_base+0(FP), SI
	MOVQ    im_base+24(FP), DI
	MOVQ    n+48(FP), BX
	SHLQ    $6, BX
	ADDQ    SI, BX
	MOVBLZX inverse+56(FP), AX
	TESTL   AX, AX
	JNZ     zfinv

zffwd:
	// a1 = a+b, s1 = a-b, c1 = c+d, s2 = c-d, rot = (sdi, -sdr)
	VMOVUPD (SI), Z0          // ar
	VMOVUPD 64(SI), Z1        // br
	VADDPD  Z1, Z0, Z2        // abr
	VSUBPD  Z1, Z0, Z0        // sbr
	VMOVUPD (DI), Z1          // ai
	VMOVUPD 64(DI), Z3        // bi
	VADDPD  Z3, Z1, Z4        // abi
	VSUBPD  Z3, Z1, Z1        // sbi
	VMOVUPD 128(SI), Z3       // cr
	VMOVUPD 192(SI), Z5       // dr
	VADDPD  Z5, Z3, Z6        // cdr
	VSUBPD  Z5, Z3, Z3        // sdr
	VMOVUPD 128(DI), Z5       // ci
	VMOVUPD 192(DI), Z7       // di
	VADDPD  Z7, Z5, Z8        // cdi
	VSUBPD  Z7, Z5, Z5        // sdi
	VADDPD  Z6, Z2, Z7
	VMOVUPD Z7, (SI)          // abr+cdr
	VSUBPD  Z6, Z2, Z2
	VMOVUPD Z2, 128(SI)       // abr-cdr
	VADDPD  Z8, Z4, Z7
	VMOVUPD Z7, (DI)          // abi+cdi
	VSUBPD  Z8, Z4, Z4
	VMOVUPD Z4, 128(DI)       // abi-cdi
	VADDPD  Z5, Z0, Z7
	VMOVUPD Z7, 64(SI)        // sbr+sdi
	VSUBPD  Z5, Z0, Z0
	VMOVUPD Z0, 192(SI)       // sbr-sdi
	VSUBPD  Z3, Z1, Z7
	VMOVUPD Z7, 64(DI)        // sbi-sdr
	VADDPD  Z3, Z1, Z1
	VMOVUPD Z1, 192(DI)       // sbi+sdr
	ADDQ    $256, SI
	ADDQ    $256, DI
	CMPQ    SI, BX
	JB      zffwd
	VZEROUPPER
	RET

zfinv:
	// Same butterflies with rot = (-sdi, sdr).
	VMOVUPD (SI), Z0
	VMOVUPD 64(SI), Z1
	VADDPD  Z1, Z0, Z2
	VSUBPD  Z1, Z0, Z0
	VMOVUPD (DI), Z1
	VMOVUPD 64(DI), Z3
	VADDPD  Z3, Z1, Z4
	VSUBPD  Z3, Z1, Z1
	VMOVUPD 128(SI), Z3
	VMOVUPD 192(SI), Z5
	VADDPD  Z5, Z3, Z6
	VSUBPD  Z5, Z3, Z3
	VMOVUPD 128(DI), Z5
	VMOVUPD 192(DI), Z7
	VADDPD  Z7, Z5, Z8
	VSUBPD  Z7, Z5, Z5
	VADDPD  Z6, Z2, Z7
	VMOVUPD Z7, (SI)
	VSUBPD  Z6, Z2, Z2
	VMOVUPD Z2, 128(SI)
	VADDPD  Z8, Z4, Z7
	VMOVUPD Z7, (DI)
	VSUBPD  Z8, Z4, Z4
	VMOVUPD Z4, 128(DI)
	VSUBPD  Z5, Z0, Z7
	VMOVUPD Z7, 64(SI)        // sbr-sdi
	VADDPD  Z5, Z0, Z0
	VMOVUPD Z0, 192(SI)       // sbr+sdi
	VADDPD  Z3, Z1, Z7
	VMOVUPD Z7, 64(DI)        // sbi+sdr
	VSUBPD  Z3, Z1, Z1
	VMOVUPD Z1, 192(DI)       // sbi-sdr
	ADDQ    $256, SI
	ADDQ    $256, DI
	CMPQ    SI, BX
	JB      zfinv
	VZEROUPPER
	RET

// func fusedPairAVX512(re, im []float64, tw []complex128, n, size int)
//
// One fused radix-4-style stage pair (stages size and 2*size), the loop
// structure and register roles of the SSE2 fusedPairSSE2 with one ZMM body
// per bin row. Twiddle splats: Z10/Z11 = wA, Z12/Z13 = wB1, Z14/Z15 = wB2.
TEXT ·fusedPairAVX512(SB), NOSPLIT, $0-88
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

zpairouter:
	// twB0 = tw[n/4], used only by the k = 0 column.
	MOVQ         tw_base+48(FP), AX
	VBROADCASTSD (AX)(R11*1), Z14
	VBROADCASTSD 8(AX)(R11*1), Z15
	LEAQ         (SI)(BX*1), R12
	LEAQ         (DI)(BX*1), R13
	MOVQ         BX, R15
	ADDQ         R9, R15      // k-loop end offset

	// k = 0: a1 = a+b, b1 = a-b, c1 = c+d, d1 = c-d;
	// out a/c = a1±c1, tB = d1*twB0, out b/d = b1±tB.
	VMOVUPD (R12), Z0
	VMOVUPD (R12)(R9*1), Z1
	VADDPD  Z1, Z0, Z2        // a1r
	VSUBPD  Z1, Z0, Z0        // b1r
	VMOVUPD (R13), Z1
	VMOVUPD (R13)(R9*1), Z3
	VADDPD  Z3, Z1, Z4        // a1i
	VSUBPD  Z3, Z1, Z1        // b1i
	VMOVUPD (R12)(R10*1), Z3
	VMOVUPD (R12)(R14*1), Z5
	VADDPD  Z5, Z3, Z6        // c1r
	VSUBPD  Z5, Z3, Z3        // d1r
	VMOVUPD (R13)(R10*1), Z5
	VMOVUPD (R13)(R14*1), Z7
	VADDPD  Z7, Z5, Z8        // c1i
	VSUBPD  Z7, Z5, Z5        // d1i
	VADDPD  Z6, Z2, Z7
	VMOVUPD Z7, (R12)         // a1r+c1r
	VSUBPD  Z6, Z2, Z2
	VMOVUPD Z2, (R12)(R10*1)  // a1r-c1r
	VADDPD  Z8, Z4, Z7
	VMOVUPD Z7, (R13)         // a1i+c1i
	VSUBPD  Z8, Z4, Z4
	VMOVUPD Z4, (R13)(R10*1)  // a1i-c1i
	VMULPD  Z14, Z3, Z2       // d1r*w0r
	VMULPD  Z15, Z5, Z4       // d1i*w0i
	VSUBPD  Z4, Z2, Z2        // tBr
	VMULPD  Z15, Z3, Z3       // d1r*w0i
	VMULPD  Z14, Z5, Z5       // d1i*w0r
	VADDPD  Z5, Z3, Z3        // tBi
	VADDPD  Z2, Z0, Z4
	VMOVUPD Z4, (R12)(R9*1)   // b1r+tBr
	VSUBPD  Z2, Z0, Z0
	VMOVUPD Z0, (R12)(R14*1)  // b1r-tBr
	VADDPD  Z3, Z1, Z4
	VMOVUPD Z4, (R13)(R9*1)   // b1i+tBi
	VSUBPD  Z3, Z1, Z1
	VMOVUPD Z1, (R13)(R14*1)  // b1i-tBi

	ADDQ $64, R12
	ADDQ $64, R13
	ADDQ $64, BX
	MOVQ tw_base+48(FP), CX
	LEAQ (CX)(DX*1), AX       // wA ptr = &tw[stepA]
	ADDQ R8, CX               // wB1 ptr = &tw[stepB]
	CMPQ BX, R15
	JGE  zpairnext

zpairkloop:
	VBROADCASTSD (AX), Z10
	VBROADCASTSD 8(AX), Z11
	VBROADCASTSD (CX), Z12
	VBROADCASTSD 8(CX), Z13
	VBROADCASTSD (CX)(R11*1), Z14
	VBROADCASTSD 8(CX)(R11*1), Z15
	VMOVUPD      (R12), Z0          // ar
	VMOVUPD      (R13), Z1          // ai
	VMOVUPD      (R12)(R9*1), Z2    // br
	VMOVUPD      (R13)(R9*1), Z3    // bi
	VMULPD       Z10, Z2, Z4        // br*wAr
	VMULPD       Z11, Z3, Z5        // bi*wAi
	VSUBPD       Z5, Z4, Z4         // tAr
	VMULPD       Z11, Z2, Z2        // br*wAi
	VMULPD       Z10, Z3, Z3        // bi*wAr
	VADDPD       Z3, Z2, Z2         // tAi
	VADDPD       Z4, Z0, Z5         // a1r
	VSUBPD       Z4, Z0, Z0         // b1r
	VADDPD       Z2, Z1, Z4         // a1i
	VSUBPD       Z2, Z1, Z1         // b1i
	VMOVUPD      (R12)(R10*1), Z2   // cr
	VMOVUPD      (R13)(R10*1), Z3   // ci
	VMOVUPD      (R12)(R14*1), Z6   // dr
	VMOVUPD      (R13)(R14*1), Z7   // di
	VMULPD       Z10, Z6, Z8        // dr*wAr
	VMULPD       Z11, Z7, Z9        // di*wAi
	VSUBPD       Z9, Z8, Z8         // tA2r
	VMULPD       Z11, Z6, Z6        // dr*wAi
	VMULPD       Z10, Z7, Z7        // di*wAr
	VADDPD       Z7, Z6, Z6         // tA2i
	VADDPD       Z8, Z2, Z7         // c1r
	VSUBPD       Z8, Z2, Z2         // d1r
	VADDPD       Z6, Z3, Z8         // c1i
	VSUBPD       Z6, Z3, Z3         // d1i
	VMULPD       Z12, Z7, Z6        // c1r*wB1r
	VMULPD       Z13, Z8, Z9        // c1i*wB1i
	VSUBPD       Z9, Z6, Z6         // tB1r
	VMULPD       Z13, Z7, Z7        // c1r*wB1i
	VMULPD       Z12, Z8, Z8        // c1i*wB1r
	VADDPD       Z8, Z7, Z7         // tB1i
	VADDPD       Z6, Z5, Z8
	VMOVUPD      Z8, (R12)          // a = a1r+tB1r
	VSUBPD       Z6, Z5, Z5
	VMOVUPD      Z5, (R12)(R10*1)   // c = a1r-tB1r
	VADDPD       Z7, Z4, Z8
	VMOVUPD      Z8, (R13)          // a1i+tB1i
	VSUBPD       Z7, Z4, Z4
	VMOVUPD      Z4, (R13)(R10*1)   // a1i-tB1i
	VMULPD       Z14, Z2, Z5        // d1r*wB2r
	VMULPD       Z15, Z3, Z6        // d1i*wB2i
	VSUBPD       Z6, Z5, Z5         // tB2r
	VMULPD       Z15, Z2, Z2        // d1r*wB2i
	VMULPD       Z14, Z3, Z3        // d1i*wB2r
	VADDPD       Z3, Z2, Z2         // tB2i
	VADDPD       Z5, Z0, Z6
	VMOVUPD      Z6, (R12)(R9*1)    // b = b1r+tB2r
	VSUBPD       Z5, Z0, Z0
	VMOVUPD      Z0, (R12)(R14*1)   // d = b1r-tB2r
	VADDPD       Z2, Z1, Z6
	VMOVUPD      Z6, (R13)(R9*1)    // b1i+tB2i
	VSUBPD       Z2, Z1, Z1
	VMOVUPD      Z1, (R13)(R14*1)   // b1i-tB2i
	ADDQ         $64, BX
	ADDQ         $64, R12
	ADDQ         $64, R13
	ADDQ         DX, AX
	ADDQ         R8, CX
	CMPQ         BX, R15
	JL           zpairkloop

zpairnext:
	// BX == start+half*64; next start offset = start + 2*size*64.
	ADDQ R10, BX
	ADDQ R10, BX
	SUBQ R9, BX
	MOVQ n+72(FP), R12
	SHLQ $6, R12
	CMPQ BX, R12
	JL   zpairouter
	VZEROUPPER
	RET

// func bitrevSwapAVX512(re, im []float64, rev []int)
//
// Bit-reversal row permutation: swaps 64-byte bin rows i and rev[i] of
// both planes when i < rev[i].
TEXT ·bitrevSwapAVX512(SB), NOSPLIT, $0-72
	MOVQ re_base+0(FP), SI
	MOVQ im_base+24(FP), DI
	MOVQ rev_base+48(FP), R8
	MOVQ rev_len+56(FP), R9
	XORQ CX, CX
	CMPQ CX, R9
	JGE  zbdone

zbloop:
	MOVQ    (R8)(CX*8), AX
	CMPQ    CX, AX
	JGE     zbnext
	MOVQ    CX, DX
	SHLQ    $6, DX
	SHLQ    $6, AX
	VMOVUPD (SI)(DX*1), Z0
	VMOVUPD (SI)(AX*1), Z1
	VMOVUPD Z1, (SI)(DX*1)
	VMOVUPD Z0, (SI)(AX*1)
	VMOVUPD (DI)(DX*1), Z2
	VMOVUPD (DI)(AX*1), Z3
	VMOVUPD Z3, (DI)(DX*1)
	VMOVUPD Z2, (DI)(AX*1)

zbnext:
	INCQ CX
	CMPQ CX, R9
	JL   zbloop

zbdone:
	VZEROUPPER
	RET

// func irfftRecombAVX512(sre, sim []float64, w []complex128, hm int)
//
// Pre-transform recombination of the inverse real transform, plus the
// mid-bin negation. Z10/Z11 = twiddle splat, Z12 = 0.5 splat; R12/R13 =
// row-k pointers, R14/R15 = row-(hm-k) pointers.
TEXT ·irfftRecombAVX512(SB), NOSPLIT, $0-80
	MOVQ         sre_base+0(FP), SI
	MOVQ         sim_base+24(FP), DI
	MOVQ         hm+72(FP), R9
	SHLQ         $6, R9         // hm*64
	MOVQ         $0x3FE0000000000000, AX
	VPBROADCASTQ AX, Z12

	VMOVUPD (SI), Z0          // p0r
	VMOVUPD (SI)(R9*1), Z1    // phr
	VADDPD  Z1, Z0, Z2
	VMULPD  Z12, Z2, Z2       // er
	VSUBPD  Z1, Z0, Z0
	VMULPD  Z12, Z0, Z0       // dr
	VMOVUPD (DI), Z3          // p0i
	VMOVUPD (DI)(R9*1), Z4    // phi
	VSUBPD  Z4, Z3, Z5
	VMULPD  Z12, Z5, Z5       // ei
	VADDPD  Z4, Z3, Z3
	VMULPD  Z12, Z3, Z3       // di
	VSUBPD  Z3, Z2, Z2
	VMOVUPD Z2, (SI)          // er-di
	VADDPD  Z0, Z5, Z5
	VMOVUPD Z5, (DI)          // ei+dr

	LEAQ 64(SI), R12
	LEAQ 64(DI), R13
	LEAQ -64(SI)(R9*1), R14
	LEAQ -64(DI)(R9*1), R15
	MOVQ w_base+48(FP), AX
	ADDQ $16, AX              // &w[1]
	MOVQ R9, R8
	SHRQ $1, R8               // hm*32: k-loop limit and mid-row offset
	MOVQ $64, BX
	CMPQ BX, R8
	JGE  zirmid

zirkloop:
	VBROADCASTSD (AX), Z10
	VBROADCASTSD 8(AX), Z11
	VMOVUPD      (R12), Z0    // pkr
	VMOVUPD      (R14), Z1    // pcr
	VADDPD       Z1, Z0, Z2
	VMULPD       Z12, Z2, Z2  // er
	VSUBPD       Z1, Z0, Z0
	VMULPD       Z12, Z0, Z0  // dr
	VMOVUPD      (R13), Z3    // pki
	VMOVUPD      (R15), Z4    // pci
	VSUBPD       Z4, Z3, Z5
	VMULPD       Z12, Z5, Z5  // ei
	VADDPD       Z4, Z3, Z3
	VMULPD       Z12, Z3, Z3  // di
	VMULPD       Z10, Z0, Z4  // dr*wr
	VMULPD       Z11, Z3, Z6  // di*wi
	VADDPD       Z6, Z4, Z4   // or
	VMULPD       Z10, Z3, Z3  // di*wr
	VMULPD       Z11, Z0, Z0  // dr*wi
	VSUBPD       Z0, Z3, Z3   // oi
	VSUBPD       Z3, Z2, Z0
	VMOVUPD      Z0, (R12)    // er-oi
	VADDPD       Z3, Z2, Z2
	VMOVUPD      Z2, (R14)    // er+oi
	VADDPD       Z4, Z5, Z0
	VMOVUPD      Z0, (R13)    // ei+or
	VSUBPD       Z5, Z4, Z4
	VMOVUPD      Z4, (R15)    // or-ei
	ADDQ         $64, BX
	ADDQ         $64, R12
	ADDQ         $64, R13
	SUBQ         $64, R14
	SUBQ         $64, R15
	ADDQ         $16, AX
	CMPQ         BX, R8
	JL           zirkloop

zirmid:
	CMPQ         R9, $128
	JL           zirdone
	MOVQ         $0x8000000000000000, AX
	VPBROADCASTQ AX, Z10
	VMOVUPD      (DI)(R8*1), Z0
	VPXORQ       Z10, Z0, Z0
	VMOVUPD      Z0, (DI)(R8*1)

zirdone:
	VZEROUPPER
	RET

// MULLANE: one lane's spectrum×kernel products over an 8-bin block. off =
// 8*lane indexes the per-lane pointer arrays (R8 = xr, R9 = xi, R10 = k);
// BX = first bin*8. VPERMT2PD with the even/odd indices in Z30/Z31 splits
// the lane's interleaved complex128 kernel bins into kr and ki vectors.
// Leaves xr*kr - xi*ki in re and xr*ki + xi*kr in im, lane-major (element
// j is bin j of the block).
#define MULLANE(off, re, im) \
	MOVQ      off(R8), AX           \
	MOVQ      off(R9), DX           \
	MOVQ      off(R10), R11         \
	VMOVUPD   (AX)(BX*1), Z24       \ // xr
	VMOVUPD   (DX)(BX*1), Z25       \ // xi
	VMOVUPD   (R11)(BX*2), Z26      \ // k bins 0-3
	VMOVUPD   (R11)(BX*2), Z27      \
	VMOVUPD   64(R11)(BX*2), Z28    \ // k bins 4-7
	VPERMT2PD Z28, Z30, Z26         \ // kr
	VPERMT2PD Z28, Z31, Z27         \ // ki
	VMULPD    Z26, Z24, re          \ // xr*kr
	VMULPD    Z27, Z25, Z29         \ // xi*ki
	VSUBPD    Z29, re, re           \ // xr*kr - xi*ki
	VMULPD    Z27, Z24, im          \ // xr*ki
	VMULPD    Z26, Z25, Z29         \ // xi*kr
	VADDPD    Z29, im, im           // xr*ki + xi*kr

// TRANSPOSE8: turns eight lane-major vectors a0..a7 (lane s, bins 0-7 of
// the block) into the block's eight bin rows, leaving bins 0-7 in Z16,
// Z20, Z18, Z22, Z17, Z21, Z19, Z23. Pure data movement (unpack, then two
// 128-bit-lane shuffles); clobbers a0..a7.
#define TRANSPOSE8(a0, a1, a2, a3, a4, a5, a6, a7) \
	VUNPCKLPD  a1, a0, Z16          \ // lanes 0,1: bins 0,2,4,6
	VUNPCKHPD  a1, a0, Z17          \ // lanes 0,1: bins 1,3,5,7
	VUNPCKLPD  a3, a2, Z18          \
	VUNPCKHPD  a3, a2, Z19          \
	VUNPCKLPD  a5, a4, Z20          \
	VUNPCKHPD  a5, a4, Z21          \
	VUNPCKLPD  a7, a6, Z22          \
	VUNPCKHPD  a7, a6, Z23          \
	VSHUFF64X2 $0x88, Z18, Z16, a0  \ // lanes 0-3: bins 0,4
	VSHUFF64X2 $0xDD, Z18, Z16, a1  \ // lanes 0-3: bins 2,6
	VSHUFF64X2 $0x88, Z19, Z17, a2  \ // lanes 0-3: bins 1,5
	VSHUFF64X2 $0xDD, Z19, Z17, a3  \ // lanes 0-3: bins 3,7
	VSHUFF64X2 $0x88, Z22, Z20, a4  \ // lanes 4-7: bins 0,4
	VSHUFF64X2 $0xDD, Z22, Z20, a5  \ // lanes 4-7: bins 2,6
	VSHUFF64X2 $0x88, Z23, Z21, a6  \ // lanes 4-7: bins 1,5
	VSHUFF64X2 $0xDD, Z23, Z21, a7  \ // lanes 4-7: bins 3,7
	VSHUFF64X2 $0x88, a4, a0, Z16   \ // bin 0
	VSHUFF64X2 $0xDD, a4, a0, Z17   \ // bin 4
	VSHUFF64X2 $0x88, a5, a1, Z18   \ // bin 2
	VSHUFF64X2 $0xDD, a5, a1, Z19   \ // bin 6
	VSHUFF64X2 $0x88, a6, a2, Z20   \ // bin 1
	VSHUFF64X2 $0xDD, a6, a2, Z21   \ // bin 5
	VSHUFF64X2 $0x88, a7, a3, Z22   \ // bin 3
	VSHUFF64X2 $0xDD, a7, a3, Z23   // bin 7

// ROWSADD: adds the block's eight bin rows already at D (row j at j*64)
// into TRANSPOSE8's row registers: the accumulate form's row + product.
#define ROWSADD(D) \
	VADDPD 0(D), Z16, Z16   \
	VADDPD 64(D), Z20, Z20  \
	VADDPD 128(D), Z18, Z18 \
	VADDPD 192(D), Z22, Z22 \
	VADDPD 256(D), Z17, Z17 \
	VADDPD 320(D), Z21, Z21 \
	VADDPD 384(D), Z19, Z19 \
	VADDPD 448(D), Z23, Z23

// ROWSSTORE: stores TRANSPOSE8's row registers as the block's bin rows,
// row j at j*64(D).
#define ROWSSTORE(D) \
	VMOVUPD Z16, 0(D)   \
	VMOVUPD Z20, 64(D)  \
	VMOVUPD Z18, 128(D) \
	VMOVUPD Z22, 192(D) \
	VMOVUPD Z17, 256(D) \
	VMOVUPD Z21, 320(D) \
	VMOVUPD Z19, 384(D) \
	VMOVUPD Z23, 448(D)

// Qword indices that pick the real (even) and imaginary (odd) parts of
// eight interleaved complex128 values spread over two ZMM tables.
DATA deintEven<>+0(SB)/8, $0
DATA deintEven<>+8(SB)/8, $2
DATA deintEven<>+16(SB)/8, $4
DATA deintEven<>+24(SB)/8, $6
DATA deintEven<>+32(SB)/8, $8
DATA deintEven<>+40(SB)/8, $10
DATA deintEven<>+48(SB)/8, $12
DATA deintEven<>+56(SB)/8, $14
GLOBL deintEven<>(SB), RODATA|NOPTR, $64

DATA deintOdd<>+0(SB)/8, $1
DATA deintOdd<>+8(SB)/8, $3
DATA deintOdd<>+16(SB)/8, $5
DATA deintOdd<>+24(SB)/8, $7
DATA deintOdd<>+32(SB)/8, $9
DATA deintOdd<>+40(SB)/8, $11
DATA deintOdd<>+48(SB)/8, $13
DATA deintOdd<>+56(SB)/8, $15
GLOBL deintOdd<>(SB), RODATA|NOPTR, $64

// func gatherMulAVX512(dre, dim []float64, bins int, xr, xi *[8]*float64, k *[8]*complex128, acc bool)
//
// Kernel-spectrum multiply for a full lockstep group, through per-lane
// pointers xr/xi (spectrum planes) and k (kernel spectra), so the lanes
// may mix kernels. Whole 8-bin blocks run lane by lane (MULLANE) and are
// transposed into bin rows (TRANSPOSE8); the bins past the last whole
// block (the Nyquist bin, at power-of-two lengths) gather one bin row per
// step with VGATHERQPD. Both forms run the same per-lane multiply. With
// acc set, every finished product row is added to the row already in
// dre/dim (VADDPD, never an FMA) before it is stored.
TEXT ·gatherMulAVX512(SB), NOSPLIT, $0-81
	MOVQ      dre_base+0(FP), SI
	MOVQ      dim_base+24(FP), DI
	MOVQ      bins+48(FP), CX
	MOVQ      xr+56(FP), R8
	MOVQ      xi+64(FP), R9
	MOVQ      k+72(FP), R10
	MOVBQZX   acc+80(FP), R13
	VMOVDQU64 deintEven<>(SB), Z30
	VMOVDQU64 deintOdd<>(SB), Z31
	XORQ      BX, BX          // block's first bin*8
	MOVQ      CX, R12
	SHRQ      $3, R12         // whole blocks
	JZ        zgtail

zgblock:
	MULLANE(0, Z0, Z8)
	MULLANE(8, Z1, Z9)
	MULLANE(16, Z2, Z10)
	MULLANE(24, Z3, Z11)
	MULLANE(32, Z4, Z12)
	MULLANE(40, Z5, Z13)
	MULLANE(48, Z6, Z14)
	MULLANE(56, Z7, Z15)
	TRANSPOSE8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	TESTQ     R13, R13
	JZ        zgstorere
	ROWSADD(SI)

zgstorere:
	ROWSSTORE(SI)
	TRANSPOSE8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	TESTQ     R13, R13
	JZ        zgstoreim
	ROWSADD(DI)

zgstoreim:
	ROWSSTORE(DI)
	ADDQ      $64, BX
	ADDQ      $512, SI
	ADDQ      $512, DI
	DECQ      R12
	JNZ       zgblock

zgtail:
	ANDQ         $7, CX       // bins left after the blocks
	JZ           zgdone
	VMOVDQU64    (R8), Z20    // lane xr pointers
	VMOVDQU64    (R9), Z21    // lane xi pointers
	VMOVDQU64    (R10), Z22   // lane kernel pointers
	VPBROADCASTQ BX, Z23
	VPADDQ       Z23, Z20, Z20
	VPADDQ       Z23, Z21, Z21
	VPADDQ       Z23, Z22, Z22
	VPADDQ       Z23, Z22, Z22 // kernel pointers advance 16 bytes a bin
	MOVQ         $8, AX
	VPBROADCASTQ AX, Z23        // one float64 bin
	MOVQ         $16, AX
	VPBROADCASTQ AX, Z24        // one complex128 bin
	XORQ         DX, DX         // zero base: the indices are addresses

zgloop:
	// Gather destinations are zeroed first so each gather starts a fresh
	// dependency chain.
	KXNORW     K1, K1, K1
	VPXORQ     Z0, Z0, Z0
	VGATHERQPD (DX)(Z20*1), K1, Z0  // xr
	KXNORW     K2, K2, K2
	VPXORQ     Z1, Z1, Z1
	VGATHERQPD (DX)(Z21*1), K2, Z1  // xi
	KXNORW     K3, K3, K3
	VPXORQ     Z2, Z2, Z2
	VGATHERQPD (DX)(Z22*1), K3, Z2  // kr
	KXNORW     K4, K4, K4
	VPXORQ     Z3, Z3, Z3
	VGATHERQPD 8(DX)(Z22*1), K4, Z3 // ki
	VMULPD     Z2, Z0, Z4           // xr*kr
	VMULPD     Z3, Z1, Z5           // xi*ki
	VSUBPD     Z5, Z4, Z4           // xr*kr - xi*ki
	VMULPD     Z3, Z0, Z0           // xr*ki
	VMULPD     Z2, Z1, Z1           // xi*kr
	VADDPD     Z1, Z0, Z0           // xr*ki + xi*kr
	TESTQ      R13, R13
	JZ         zgstoretail
	VADDPD     (SI), Z4, Z4
	VADDPD     (DI), Z0, Z0

zgstoretail:
	VMOVUPD    Z4, (SI)
	VMOVUPD    Z0, (DI)
	VPADDQ     Z23, Z20, Z20
	VPADDQ     Z23, Z21, Z21
	VPADDQ     Z24, Z22, Z22
	ADDQ       $64, SI
	ADDQ       $64, DI
	DECQ       CX
	JNZ        zgloop

zgdone:
	VZEROUPPER
	RET

// CROWSET: the first channel's products for one bin row of a chunk, into
// the row's accumulators ar/ai: kernel bin (kr at kro(DX), ki at kio(DX))
// broadcast over the row's eight lanes, xr/xi at xo(AX)/xo(R15). Leaves
// xr*kr - xi*ki in ar and xr*ki + xi*kr in ai.
#define CROWSET(kro, kio, xo, ar, ai) \
	VBROADCASTSD kro(DX), Z16 \ // kr
	VBROADCASTSD kio(DX), Z17 \ // ki
	VMOVUPD      xo(AX), Z18  \ // xr
	VMOVUPD      xo(R15), Z19 \ // xi
	VMULPD       Z16, Z18, Z20 \ // xr*kr
	VMULPD       Z17, Z19, Z21 \ // xi*ki
	VSUBPD       Z21, Z20, ar  \ // xr*kr - xi*ki
	VMULPD       Z17, Z18, Z22 \ // xr*ki
	VMULPD       Z16, Z19, Z23 \ // xi*kr
	VADDPD       Z23, Z22, ai  // xr*ki + xi*kr

// CROWADD: a later channel's products for one bin row, added to the
// row's running sums as product + sum (gatherMulAVX512's ROWSADD order).
// Odd and even rows use separate temporaries.
#define CROWADD(kro, kio, xo, ar, ai, t0, t1, t2, t3, t4, t5, t6, t7) \
	VBROADCASTSD kro(DX), t0 \ // kr
	VBROADCASTSD kio(DX), t1 \ // ki
	VMOVUPD      xo(AX), t2  \ // xr
	VMOVUPD      xo(R15), t3 \ // xi
	VMULPD       t0, t2, t4  \ // xr*kr
	VMULPD       t1, t3, t5  \ // xi*ki
	VSUBPD       t5, t4, t4  \ // xr*kr - xi*ki
	VMULPD       t1, t2, t6  \ // xr*ki
	VMULPD       t0, t3, t7  \ // xi*kr
	VADDPD       t7, t6, t6  \ // xr*ki + xi*kr
	VADDPD       ar, t4, ar  \ // product + running sum
	VADDPD       ai, t6, ai

#define CROWADDA(kro, kio, xo, ar, ai) CROWADD(kro, kio, xo, ar, ai, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
#define CROWADDB(kro, kio, xo, ar, ai) CROWADD(kro, kio, xo, ar, ai, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31)

// func chunkMulAVX512(dre, dim []float64, bins int, xr, xi []float64, k []*complex128, acc bool)
//
// Full-chunk multiply: bin row r of dre/dim (eight lanes, 64 bytes)
// receives the sum over the len(k) channels c of channel c's chunk row r
// (xr/xi, channel c from c*bins*64 bytes) times kernel bin k[c][r],
// broadcast over the row. 8-row blocks keep their sums in Z0-Z7 (re) and
// Z8-Z15 (im) across the channels and store once; the rows past the last
// whole block run one at a time. Channel 0 stores its products, or with
// acc set adds them to the rows already in dre/dim; later channels add,
// in channel order, always as product + running sum (VADDPD, never an
// FMA).
TEXT ·chunkMulAVX512(SB), NOSPLIT, $0-129
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
	XORQ BX, BX               // first row of the block, *64
	SHRQ $3, CX               // whole 8-row blocks
	JZ   ctail

cblock:
	MOVQ BX, R13
	SHRQ $2, R13              // first kernel bin of the block, *16
	MOVQ R10, R14             // kernel table entry of the channel
	MOVQ (R14), DX
	ADDQ R13, DX
	LEAQ (R8)(BX*1), AX       // channel's xr rows
	LEAQ (R9)(BX*1), R15      // channel's xi rows
	CMPB acc+128(FP), $0
	JEQ  cblockset
	VMOVUPD 0(SI)(BX*1), Z0
	VMOVUPD 64(SI)(BX*1), Z1
	VMOVUPD 128(SI)(BX*1), Z2
	VMOVUPD 192(SI)(BX*1), Z3
	VMOVUPD 256(SI)(BX*1), Z4
	VMOVUPD 320(SI)(BX*1), Z5
	VMOVUPD 384(SI)(BX*1), Z6
	VMOVUPD 448(SI)(BX*1), Z7
	VMOVUPD 0(DI)(BX*1), Z8
	VMOVUPD 64(DI)(BX*1), Z9
	VMOVUPD 128(DI)(BX*1), Z10
	VMOVUPD 192(DI)(BX*1), Z11
	VMOVUPD 256(DI)(BX*1), Z12
	VMOVUPD 320(DI)(BX*1), Z13
	VMOVUPD 384(DI)(BX*1), Z14
	VMOVUPD 448(DI)(BX*1), Z15
	JMP  cblockadd            // channel 0 adds onto the planes' rows

cblockset:
	CROWSET(0, 8, 0, Z0, Z8)
	CROWSET(16, 24, 64, Z1, Z9)
	CROWSET(32, 40, 128, Z2, Z10)
	CROWSET(48, 56, 192, Z3, Z11)
	CROWSET(64, 72, 256, Z4, Z12)
	CROWSET(80, 88, 320, Z5, Z13)
	CROWSET(96, 104, 384, Z6, Z14)
	CROWSET(112, 120, 448, Z7, Z15)

cblockch:
	ADDQ $8, R14
	CMPQ R14, R11
	JEQ  cblockstore
	MOVQ (R14), DX
	ADDQ R13, DX
	ADDQ R12, AX
	ADDQ R12, R15

cblockadd:
	CROWADDA(0, 8, 0, Z0, Z8)
	CROWADDB(16, 24, 64, Z1, Z9)
	CROWADDA(32, 40, 128, Z2, Z10)
	CROWADDB(48, 56, 192, Z3, Z11)
	CROWADDA(64, 72, 256, Z4, Z12)
	CROWADDB(80, 88, 320, Z5, Z13)
	CROWADDA(96, 104, 384, Z6, Z14)
	CROWADDB(112, 120, 448, Z7, Z15)
	JMP  cblockch

cblockstore:
	VMOVUPD Z0, 0(SI)(BX*1)
	VMOVUPD Z1, 64(SI)(BX*1)
	VMOVUPD Z2, 128(SI)(BX*1)
	VMOVUPD Z3, 192(SI)(BX*1)
	VMOVUPD Z4, 256(SI)(BX*1)
	VMOVUPD Z5, 320(SI)(BX*1)
	VMOVUPD Z6, 384(SI)(BX*1)
	VMOVUPD Z7, 448(SI)(BX*1)
	VMOVUPD Z8, 0(DI)(BX*1)
	VMOVUPD Z9, 64(DI)(BX*1)
	VMOVUPD Z10, 128(DI)(BX*1)
	VMOVUPD Z11, 192(DI)(BX*1)
	VMOVUPD Z12, 256(DI)(BX*1)
	VMOVUPD Z13, 320(DI)(BX*1)
	VMOVUPD Z14, 384(DI)(BX*1)
	VMOVUPD Z15, 448(DI)(BX*1)
	ADDQ $512, BX
	DECQ CX
	JNZ  cblock

ctail:
	MOVQ bins+48(FP), CX
	ANDQ $7, CX               // rows past the last whole block
	JZ   cdone

crow:
	MOVQ BX, R13
	SHRQ $2, R13
	MOVQ R10, R14
	MOVQ (R14), DX
	ADDQ R13, DX
	LEAQ (R8)(BX*1), AX
	LEAQ (R9)(BX*1), R15
	CMPB acc+128(FP), $0
	JEQ  crowset
	VMOVUPD (SI)(BX*1), Z0
	VMOVUPD (DI)(BX*1), Z8
	JMP  crowadd

crowset:
	CROWSET(0, 8, 0, Z0, Z8)

crowch:
	ADDQ $8, R14
	CMPQ R14, R11
	JEQ  crowstore
	MOVQ (R14), DX
	ADDQ R13, DX
	ADDQ R12, AX
	ADDQ R12, R15

crowadd:
	CROWADDA(0, 8, 0, Z0, Z8)
	JMP  crowch

crowstore:
	VMOVUPD Z0, (SI)(BX*1)
	VMOVUPD Z8, (DI)(BX*1)
	ADDQ $64, BX
	DECQ CX
	JNZ  crow

cdone:
	VZEROUPPER
	RET

// LANEMASK sets mask register k to all ones when lane s is live (s < AX,
// the live lane count) and to zero otherwise; clobbers R11 and R12.
#define LANEMASK(s, k) \
	XORQ    R11, R11      \
	MOVQ    $0xFF, R12    \
	CMPQ    AX, $s        \
	CMOVQGT R12, R11      \
	KMOVW   R11, k

// LANEMASKS fills K1-K7 with the masks of lanes 1-7 (lane 0 is always
// live).
#define LANEMASKS \
	LANEMASK(1, K1) \
	LANEMASK(2, K2) \
	LANEMASK(3, K3) \
	LANEMASK(4, K4) \
	LANEMASK(5, K5) \
	LANEMASK(6, K6) \
	LANEMASK(7, K7)

// PACKLOAD loads eight consecutive samples of every lane (lane s's signal
// at s*8(R8)), from byte off past BX, into Z0-Z7; dead lanes load zeros.
#define PACKLOAD(off) \
	MOVQ      0(R8), R11                 \
	VMOVUPD   off(R11)(BX*1), Z0         \
	MOVQ      8(R8), R11                 \
	VMOVUPD.Z off(R11)(BX*1), K1, Z1     \
	MOVQ      16(R8), R11                \
	VMOVUPD.Z off(R11)(BX*1), K2, Z2     \
	MOVQ      24(R8), R11                \
	VMOVUPD.Z off(R11)(BX*1), K3, Z3     \
	MOVQ      32(R8), R11                \
	VMOVUPD.Z off(R11)(BX*1), K4, Z4     \
	MOVQ      40(R8), R11                \
	VMOVUPD.Z off(R11)(BX*1), K5, Z5     \
	MOVQ      48(R8), R11                \
	VMOVUPD.Z off(R11)(BX*1), K6, Z6     \
	MOVQ      56(R8), R11                \
	VMOVUPD.Z off(R11)(BX*1), K7, Z7

// PACKSTORE stores TRANSPOSE8's sample rows (sample j of every lane) as
// four bin rows from byte off: even samples to the real plane (SI), odd
// ones to the imaginary plane (DI).
#define PACKSTORE(off) \
	VMOVUPD Z16, off+0(SI)   \ // sample 0: re
	VMOVUPD Z20, off+0(DI)   \ // sample 1: im
	VMOVUPD Z18, off+64(SI)  \ // sample 2
	VMOVUPD Z22, off+64(DI)  \ // sample 3
	VMOVUPD Z17, off+128(SI) \ // sample 4
	VMOVUPD Z21, off+128(DI) \ // sample 5
	VMOVUPD Z19, off+192(SI) \ // sample 6
	VMOVUPD Z23, off+192(DI) // sample 7

// func packAVX512(sre, sim []float64, x *[8]*float64, w, blocks int)
//
// Forward pack of the first blocks*8 bins: bin k of lane s receives
// x[s][2k] in sre and x[s][2k+1] in sim (row k, element s). Each 8-bin
// block loads 16 samples of every lane and transposes them (TRANSPOSE8,
// twice) into sample rows, so the even rows are real bin rows and the odd
// ones imaginary. Lanes [w, 8) are dead and store zeros (zeroing-masked
// loads never touch their memory); lane 0 is always live. Pure data
// movement: every sample is copied bit for bit.
TEXT ·packAVX512(SB), NOSPLIT, $0-72
	MOVQ sre_base+0(FP), SI
	MOVQ sim_base+24(FP), DI
	MOVQ x+48(FP), R8
	MOVQ w+56(FP), AX
	MOVQ blocks+64(FP), CX
	LANEMASKS
	XORQ BX, BX               // sample byte offset of the block
	TESTQ CX, CX
	JZ   pdone

ploop:
	PACKLOAD(0)
	TRANSPOSE8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	PACKSTORE(0)
	PACKLOAD(64)
	TRANSPOSE8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	PACKSTORE(256)
	ADDQ $128, BX
	ADDQ $512, SI
	ADDQ $512, DI
	DECQ CX
	JNZ  ploop

pdone:
	VZEROUPPER
	RET

// UNPACKSTORE stores TRANSPOSE8's lane registers (bins 0-7 of lane s) at
// byte BX of lane s's slot, whose base is at s*8(R9); dead lanes' stores
// are masked off.
#define UNPACKSTORE \
	MOVQ    0(R9), R11           \
	VMOVUPD Z16, (R11)(BX*1)     \
	MOVQ    8(R9), R11           \
	VMOVUPD Z20, K1, (R11)(BX*1) \
	MOVQ    16(R9), R11          \
	VMOVUPD Z18, K2, (R11)(BX*1) \
	MOVQ    24(R9), R11          \
	VMOVUPD Z22, K3, (R11)(BX*1) \
	MOVQ    32(R9), R11          \
	VMOVUPD Z17, K4, (R11)(BX*1) \
	MOVQ    40(R9), R11          \
	VMOVUPD Z21, K5, (R11)(BX*1) \
	MOVQ    48(R9), R11          \
	VMOVUPD Z19, K6, (R11)(BX*1) \
	MOVQ    56(R9), R11          \
	VMOVUPD Z23, K7, (R11)(BX*1)

// ROWSLOAD loads the eight bin rows of a block from D into Z0-Z7.
#define ROWSLOAD(D) \
	VMOVUPD 0(D), Z0   \
	VMOVUPD 64(D), Z1  \
	VMOVUPD 128(D), Z2 \
	VMOVUPD 192(D), Z3 \
	VMOVUPD 256(D), Z4 \
	VMOVUPD 320(D), Z5 \
	VMOVUPD 384(D), Z6 \
	VMOVUPD 448(D), Z7

// func unpackAVX512(sre, sim []float64, re, im *[8]*float64, w, blocks int)
//
// Copies the first blocks*8 bin rows of the bin-major planes out to the
// lanes' own spectra: re[s][k] = sre[k*8+s], im[s][k] = sim[k*8+s] for
// the w live lanes (lane 0 always live). Each block transposes its eight
// rows of each plane into lane vectors. Pure data movement.
TEXT ·unpackAVX512(SB), NOSPLIT, $0-80
	MOVQ sre_base+0(FP), SI
	MOVQ sim_base+24(FP), DI
	MOVQ w+64(FP), AX
	MOVQ blocks+72(FP), CX
	LANEMASKS
	XORQ BX, BX               // lane byte offset of the block
	TESTQ CX, CX
	JZ   udone

uloop:
	ROWSLOAD(SI)
	TRANSPOSE8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	MOVQ re+48(FP), R9
	UNPACKSTORE
	ROWSLOAD(DI)
	TRANSPOSE8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	MOVQ im+56(FP), R9
	UNPACKSTORE
	ADDQ $64, BX
	ADDQ $512, SI
	ADDQ $512, DI
	DECQ CX
	JNZ  uloop

udone:
	VZEROUPPER
	RET

// NORM reads bin row off of the unnormalized inverse (xr at off(SI)(BX*1),
// xi at off(DI)(BX*1)) and leaves its two output sample rows, in
// addWindow's two-term forms: yr = xr*c - xi*0 (the bin's even sample)
// and yi = xr*0 + xi*c (its odd sample). Z24 = c, Z25 = +0; clobbers
// Z26-Z28.
#define NORM(off, yr, yi) \
	VMOVUPD off(SI)(BX*1), Z26 \ // xr
	VMOVUPD off(DI)(BX*1), Z27 \ // xi
	VMULPD  Z24, Z26, yr       \ // xr*c
	VMULPD  Z25, Z27, Z28      \ // xi*0
	VSUBPD  Z28, yr, yr        \ // xr*c - xi*0
	VMULPD  Z25, Z26, yi       \ // xr*0
	VMULPD  Z24, Z27, Z28      \ // xi*c
	VADDPD  Z28, yi, yi        // xr*0 + xi*c

// WADD adds lane register y into the lane's accumulator (base at off(R8))
// at byte DX, as acc + y, under the half-block mask K1 (tmp clobbered).
#define WADD(off, y, tmp) \
	MOVQ      off(R8), R11          \
	VMOVUPD.Z (R11)(DX*1), K1, tmp  \
	VADDPD    y, tmp, tmp           \
	VMOVUPD   tmp, K1, (R11)(DX*1)

// WSTORE is WADD's first-writer form: it stores 0 + y (Z25 = +0), the
// value acc + y takes on a cleared entry, without reading the entry.
#define WSTORE(off, y, tmp) \
	MOVQ    off(R8), R11         \
	VADDPD  y, Z25, tmp          \
	VMOVUPD tmp, K1, (R11)(DX*1)

// WHALF applies op (WADD or WSTORE) to the eight lane registers
// TRANSPOSE8 left, with t0-t7 as temporaries.
#define WHALF(op, t0, t1, t2, t3, t4, t5, t6, t7) \
	op(0, Z16, t0)  \
	op(8, Z20, t1)  \
	op(16, Z18, t2) \
	op(24, Z22, t3) \
	op(32, Z17, t4) \
	op(40, Z21, t5) \
	op(48, Z19, t6) \
	op(56, Z23, t7)

DATA laneIota<>+0(SB)/8, $0
DATA laneIota<>+8(SB)/8, $1
DATA laneIota<>+16(SB)/8, $2
DATA laneIota<>+24(SB)/8, $3
DATA laneIota<>+32(SB)/8, $4
DATA laneIota<>+40(SB)/8, $5
DATA laneIota<>+48(SB)/8, $6
DATA laneIota<>+56(SB)/8, $7
GLOBL laneIota<>(SB), RODATA|NOPTR, $64

// func addWindowAVX512(re, im []float64, idx, n int, c float64, acc *[8]*float64, first bool)
//
// Adds output samples idx .. idx+n-1 of all eight lanes of the
// unnormalized inverse planes re/im into the lanes' accumulators: sample
// idx+i of lane s goes to acc[s][i]. Each block reads eight bin rows from
// row idx/2 on, normalizes them in addWindow's two-term forms (NORM) into
// sixteen sample rows, and transposes each eight (TRANSPOSE8) into the
// lanes' eight consecutive samples. An odd idx starts the first block one
// sample before the window, so entries are masked (K1) to positions
// [0, n): VPCMPUQ compares each position unsigned, which also drops the
// position -1. With first set every entry stores 0 + y (WSTORE), else
// acc + y (WADD); VADDPD and VSUBPD, never an FMA. The last block may
// read up to seven bin rows past the last sample's row.
TEXT ·addWindowAVX512(SB), NOSPLIT, $0-81
	MOVQ         re_base+0(FP), SI
	MOVQ         im_base+24(FP), DI
	MOVQ         idx+48(FP), AX
	MOVQ         n+56(FP), R9
	VBROADCASTSD c+64(FP), Z24
	MOVQ         acc+72(FP), R8
	MOVBQZX      first+80(FP), R13
	VPXORQ       Z25, Z25, Z25     // +0
	MOVQ         AX, BX
	SHRQ         $1, BX
	SHLQ         $6, BX            // byte offset of the first bin row
	ANDQ         $1, AX
	NEGQ         AX                // accumulator position of that row's even sample: 0 or -1
	VPBROADCASTQ AX, Z30
	VPADDQ       laneIota<>(SB), Z30, Z30 // positions of the half-block's samples
	VPBROADCASTQ R9, Z31           // n
	MOVQ         $8, R10
	VPBROADCASTQ R10, Z29          // one half-block
	MOVQ         AX, DX
	SHLQ         $3, DX            // byte position of the half-block
	SHLQ         $3, R9            // n*8

wloop:
	NORM(0, Z0, Z1)
	NORM(64, Z2, Z3)
	NORM(128, Z4, Z5)
	NORM(192, Z6, Z7)
	NORM(256, Z8, Z9)
	NORM(320, Z10, Z11)
	NORM(384, Z12, Z13)
	NORM(448, Z14, Z15)
	TRANSPOSE8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	VPCMPUQ $1, Z31, Z30, K1       // 0 <= position < n
	TESTQ   R13, R13
	JNZ     wstore0
	WHALF(WADD, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	JMP     whalf1

wstore0:
	WHALF(WSTORE, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)

whalf1:
	VPADDQ  Z29, Z30, Z30
	ADDQ    $64, DX
	TRANSPOSE8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	VPCMPUQ $1, Z31, Z30, K1
	TESTQ   R13, R13
	JNZ     wstore1
	WHALF(WADD, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	JMP     wnext

wstore1:
	WHALF(WSTORE, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)

wnext:
	VPADDQ Z29, Z30, Z30
	ADDQ   $64, DX
	ADDQ   $512, BX
	CMPQ   DX, R9
	JLT    wloop
	VZEROUPPER
	RET
