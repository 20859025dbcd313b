//go:build amd64 && !amop_purego

// AVX2 kernels of the obstacle step (StepObstacle) for spans 1 and 2, four
// cells per iteration. Each cell is the generic loop's arithmetic, lane by
// lane: the products w[i]*src[j+i] summed in offset order onto a zero
// accumulator with VMULPD and VADDPD (never a fused multiply-add, which
// would round once instead of twice), then the obstacle taken where
// ex > acc holds (VCMPPD GT_OQ, false on NaN, then VBLENDVPD), so every
// cell is bitwise the generic loop's. The lanes' win mask (VMOVMSKPD),
// cut to the cells at or below b, gives the last win by BSR.
//
// Registers: Y0-Y2 hold the broadcast weights, Y3 zero, Y4 the accumulator,
// Y5 a product, Y6 the obstacle and Y7 the win mask; AX is the result, BX
// the cell index, CX a shift count, DI/SI/DX the dst, src and ex pointers,
// R8 b and R9 n.

#include "textflag.h"

// GT_OQ is VCMPPD's predicate for a > b, false if either is NaN, without
// signalling on a quiet NaN: the generic loop's `if g > acc`.
#define GT_OQ $0x1e

// func stepObstacle2AVX2(dst, src, ex *float64, w0, w1 float64, b, n int) int
TEXT ·stepObstacle2AVX2(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         ex+16(FP), DX
	VBROADCASTSD w0+24(FP), Y0
	VBROADCASTSD w1+32(FP), Y1
	MOVQ         b+40(FP), R8
	MOVQ         n+48(FP), R9
	MOVQ         $-1, AX
	XORQ         BX, BX
	VXORPD       Y3, Y3, Y3

step2loop:
	VMOVUPD   (SI)(BX*8), Y4
	VMULPD    Y0, Y4, Y4
	VADDPD    Y4, Y3, Y4     // acc = 0 + w0*s0
	VMOVUPD   8(SI)(BX*8), Y5
	VMULPD    Y1, Y5, Y5
	VADDPD    Y5, Y4, Y4     // acc += w1*s1
	VMOVUPD   (DX)(BX*8), Y6
	VCMPPD    GT_OQ, Y4, Y6, Y7
	VBLENDVPD Y7, Y6, Y4, Y4 // ex where ex > acc
	VMOVUPD   Y4, (DI)(BX*8)
	VMOVMSKPD Y7, R10
	TESTQ     R10, R10
	JNZ       step2win

step2next:
	ADDQ $4, BX
	CMPQ BX, R9
	JLT  step2loop
	VZEROUPPER
	MOVQ AX, ret+56(FP)
	RET

// The block at BX has wins in R10's lanes. Lanes 0..b-j are at or below b;
// the last of those that won becomes AX.
step2win:
	MOVQ  R8, CX
	SUBQ  BX, CX
	JLT   step2next
	CMPQ  CX, $3
	JGE   step2last
	MOVQ  $2, R11
	SHLQ  CX, R11
	DECQ  R11
	ANDQ  R11, R10 // lanes 0..b-j
	JZ    step2next

step2last:
	BSRQ R10, R10
	LEAQ (BX)(R10*1), AX
	JMP  step2next

// func stepObstacle3AVX2(dst, src, ex *float64, w0, w1, w2 float64, b, n int) int
TEXT ·stepObstacle3AVX2(SB), NOSPLIT, $0-72
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         ex+16(FP), DX
	VBROADCASTSD w0+24(FP), Y0
	VBROADCASTSD w1+32(FP), Y1
	VBROADCASTSD w2+40(FP), Y2
	MOVQ         b+48(FP), R8
	MOVQ         n+56(FP), R9
	MOVQ         $-1, AX
	XORQ         BX, BX
	VXORPD       Y3, Y3, Y3

step3loop:
	VMOVUPD   (SI)(BX*8), Y4
	VMULPD    Y0, Y4, Y4
	VADDPD    Y4, Y3, Y4     // acc = 0 + w0*s0
	VMOVUPD   8(SI)(BX*8), Y5
	VMULPD    Y1, Y5, Y5
	VADDPD    Y5, Y4, Y4     // acc += w1*s1
	VMOVUPD   16(SI)(BX*8), Y5
	VMULPD    Y2, Y5, Y5
	VADDPD    Y5, Y4, Y4     // acc += w2*s2
	VMOVUPD   (DX)(BX*8), Y6
	VCMPPD    GT_OQ, Y4, Y6, Y7
	VBLENDVPD Y7, Y6, Y4, Y4 // ex where ex > acc
	VMOVUPD   Y4, (DI)(BX*8)
	VMOVMSKPD Y7, R10
	TESTQ     R10, R10
	JNZ       step3win

step3next:
	ADDQ $4, BX
	CMPQ BX, R9
	JLT  step3loop
	VZEROUPPER
	MOVQ AX, ret+64(FP)
	RET

// The block at BX has wins in R10's lanes. Lanes 0..b-j are at or below b;
// the last of those that won becomes AX.
step3win:
	MOVQ  R8, CX
	SUBQ  BX, CX
	JLT   step3next
	CMPQ  CX, $3
	JGE   step3last
	MOVQ  $2, R11
	SHLQ  CX, R11
	DECQ  R11
	ANDQ  R11, R10 // lanes 0..b-j
	JZ    step3next

step3last:
	BSRQ R10, R10
	LEAQ (BX)(R10*1), AX
	JMP  step3next
