// AVX-512F converter kernels (see convert_amd64.go for the bit-identity
// argument). Each walks its slice eight elements per iteration under the
// lane mask K1: all lanes while eight or more elements remain, then one
// pass over the tail with the low n&7 lanes, whose masked loads read no
// element past the slice (inactive lanes load +0) and whose masked stores
// write none.

#include "textflag.h"

// LANES sets K1 for the next iteration and jumps to body, or to done once
// BX (elements left) is 0; the tail pass sets BX to 8 so that the loop
// ends after it. Clobbers AX and CX.
#define LANES(body, done) \
	CMPQ  BX, $8; \
	JAE   body; \
	TESTQ BX, BX; \
	JZ    done; \
	MOVQ  BX, CX; \
	MOVL  $1, AX; \
	SHLL  CX, AX; \
	DECL  AX; \
	KMOVW AX, K1; \
	MOVQ  $8, BX

// CONSTS broadcasts the rounding constants: Z19 = 0.5, Z20 = -0.5,
// Z21 = 1.0.
#define CONSTS \
	MOVQ         $0x3FE0000000000000, AX; \
	VPBROADCASTQ AX, Z19; \
	MOVQ         $0xBFE0000000000000, AX; \
	VPBROADCASTQ AX, Z20; \
	MOVQ         $0x3FF0000000000000, AX; \
	VPBROADCASTQ AX, Z21

// QUANT clamps Z0 to [Z16, Z17] as `if v < lo { v = lo }; if v > hi
// { v = hi }`, then sets Z1 = math.Round(Z0/Z18) * Z18 (Z18 = step).
// Clobbers Z0, K2, K4 and K5.
#define QUANT \
	VCMPPD      $0x11, Z16, Z0, K2; \
	VMOVAPD     Z16, K2, Z0; \
	VCMPPD      $0x1E, Z17, Z0, K2; \
	VMOVAPD     Z17, K2, Z0; \
	VDIVPD      Z18, Z0, Z0; \
	VRNDSCALEPD $0x0B, Z0, Z1; \
	VSUBPD      Z1, Z0, Z0; \
	VCMPPD      $0x1D, Z19, Z0, K4; \
	VCMPPD      $0x12, Z20, Z0, K5; \
	VADDPD      Z21, Z1, K4, Z1; \
	VSUBPD      Z21, Z1, K5, Z1; \
	VMULPD      Z18, Z1, Z1

// func maxAbsAVX512(data []float64) float64
TEXT ·maxAbsAVX512(SB), NOSPLIT, $0-32
	MOVQ         data_base+0(FP), SI
	MOVQ         data_len+8(FP), BX
	MOVQ         $0x7FFFFFFFFFFFFFFF, AX
	VPBROADCASTQ AX, Z16                 // magnitude mask
	VPXORQ       Z0, Z0, Z0              // running maxima, +0
	KXNORW       K1, K1, K1

mloop:
	LANES(mbody, mdone)

mbody:
	VMOVUPD.Z (SI), K1, Z1
	VPANDQ    Z16, Z1, Z1
	VMAXPD    Z0, Z1, Z0                 // |v| > m ? |v| : m
	ADDQ      $64, SI
	SUBQ      $8, BX
	JMP       mloop

mdone:
	VEXTRACTF64X4 $1, Z0, Y1
	VMAXPD        Z1, Z0, Z0
	VEXTRACTF32X4 $1, Z0, X1
	VMAXPD        Z1, Z0, Z0
	VSHUFPD       $1, Z0, Z0, Z1
	VMAXPD        Z1, Z0, Z0
	VZEROUPPER
	MOVSD         X0, ret+24(FP)
	RET

// func quantizeSplitAVX512(pos, neg, src []float64, lo, hi, step float64) (hasPos, hasNeg bool)
TEXT ·quantizeSplitAVX512(SB), NOSPLIT, $0-98
	MOVQ         pos_base+0(FP), DI
	MOVQ         neg_base+24(FP), R8
	MOVQ         src_base+48(FP), SI
	MOVQ         src_len+56(FP), BX
	VBROADCASTSD lo+72(FP), Z16
	VBROADCASTSD hi+80(FP), Z17
	VBROADCASTSD step+88(FP), Z18
	CONSTS
	MOVQ         $0x8000000000000000, AX
	VPBROADCASTQ AX, Z22                 // sign bit
	VPXORQ       Z23, Z23, Z23           // +0
	KXORW        K6, K6, K6              // lanes that saw v > 0
	KXORW        K7, K7, K7              // lanes that saw v < 0
	KXNORW       K1, K1, K1

sloop:
	LANES(sbody, sdone)

sbody:
	VMOVUPD.Z (SI), K1, Z0
	QUANT
	VCMPPD    $0x1E, Z23, Z1, K1, K2     // v > 0
	VCMPPD    $0x11, Z23, Z1, K1, K3     // v < 0
	VMOVAPD.Z Z1, K2, Z2                 // p
	VPXORQ.Z  Z22, Z1, K3, Z3            // ng = -v
	VMOVUPD   Z2, K1, (DI)
	VMOVUPD   Z3, K1, (R8)
	KORW      K2, K6, K6
	KORW      K3, K7, K7
	ADDQ      $64, SI
	ADDQ      $64, DI
	ADDQ      $64, R8
	SUBQ      $8, BX
	JMP       sloop

sdone:
	KMOVW K6, AX
	TESTL AX, AX
	SETNE hasPos+96(FP)
	KMOVW K7, AX
	TESTL AX, AX
	SETNE hasNeg+97(FP)
	VZEROUPPER
	RET

// func quantizeAccumAVX512(out, src []float64, lo, hi, step, sgn float64)
TEXT ·quantizeAccumAVX512(SB), NOSPLIT, $0-80
	MOVQ         out_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), BX
	VBROADCASTSD lo+48(FP), Z16
	VBROADCASTSD hi+56(FP), Z17
	VBROADCASTSD step+64(FP), Z18
	VBROADCASTSD sgn+72(FP), Z22
	CONSTS
	KXNORW       K1, K1, K1

aloop:
	LANES(abody, adone)

abody:
	VMOVUPD.Z (SI), K1, Z0
	QUANT
	VMULPD    Z1, Z22, Z1                // sgn * code
	VMOVUPD.Z (DI), K1, Z2
	VADDPD    Z1, Z2, Z2                 // out + sgn*code
	VMOVUPD   Z2, K1, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $8, BX
	JMP       aloop

adone:
	VZEROUPPER
	RET
