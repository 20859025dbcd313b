//go:build amd64 && !amop_purego

// AVX2 kernels of the obstacle step (StepObstacle) for spans 1 and 2, four
// cells per iteration, and the last n%4 cells as one masked block: its
// loads and stores (VMASKMOVPD) touch only the live lanes, and the dead
// lanes load +0, whose obstacle never compares greater than their sum (+0,
// or NaN for an infinite weight), so they never win. Each cell is the generic loop's arithmetic, lane by
// lane: the products w[i]*src[j+i] summed in offset order onto a zero
// accumulator with VMULPD and VADDPD (never a fused multiply-add, which
// would round once instead of twice), then the obstacle taken where
// ex > acc holds (VCMPPD GT_OQ, false on NaN, then VBLENDVPD), so every
// cell is bitwise the generic loop's. The lanes' win mask (VMOVMSKPD),
// cut to the cells at or below b, gives the last win by BSR.
//
// Registers: Y0-Y2 hold the broadcast weights, Y3 zero, Y4 the accumulator,
// Y5 a product, Y6 the obstacle, Y7 the win mask and Y8 the masked block's
// live lanes; AX is the result, BX the cell index, CX a shift count,
// DI/SI/DX the dst, src and ex pointers, R8 b, R9 n, R11 the weights (then
// the mask table) and R12 n rounded down to whole blocks.

#include "textflag.h"

// tailmask holds four all-ones lanes, then four zero lanes: the four lanes
// from index 4-k are the mask of a block's first k cells.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// GT_OQ is VCMPPD's predicate for a > b, false if either is NaN, without
// signalling on a quiet NaN: the generic loop's `if g > acc`.
#define GT_OQ $0x1e

// func stepObstacleKernel(dst, src, ex, w *float64, span, b, n int) int
TEXT ·stepObstacleKernel(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         ex+16(FP), DX
	MOVQ         w+24(FP), R11
	VBROADCASTSD (R11), Y0
	VBROADCASTSD 8(R11), Y1
	MOVQ         b+40(FP), R8
	MOVQ         n+48(FP), R9
	MOVQ         R9, R12
	ANDQ         $-4, R12
	MOVQ         $-1, AX
	XORQ         BX, BX
	VXORPD       Y3, Y3, Y3
	CMPQ         span+32(FP), $2
	JEQ          span2
	TESTQ        R12, R12
	JZ           step2tail

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
	CMPQ BX, R12
	JLT  step2loop

// The last n%4 cells, if any, as one masked block. Its wins go through
// step2win, whose step2next then finds no cell left.
step2tail:
	CMPQ       BX, R9
	JGE        step2done
	MOVQ       BX, CX
	SUBQ       R9, CX                   // -(n-BX), the live lanes negated
	LEAQ       tailmask<>+32(SB), R11
	VMOVUPD    (R11)(CX*8), Y8
	VMASKMOVPD (SI)(BX*8), Y8, Y4
	VMULPD     Y0, Y4, Y4
	VADDPD     Y4, Y3, Y4               // acc = 0 + w0*s0
	VMASKMOVPD 8(SI)(BX*8), Y8, Y5
	VMULPD     Y1, Y5, Y5
	VADDPD     Y5, Y4, Y4               // acc += w1*s1
	VMASKMOVPD (DX)(BX*8), Y8, Y6
	VCMPPD     GT_OQ, Y4, Y6, Y7
	VBLENDVPD  Y7, Y6, Y4, Y4           // ex where ex > acc
	VMASKMOVPD Y4, Y8, (DI)(BX*8)
	VMOVMSKPD  Y7, R10
	TESTQ      R10, R10
	JNZ        step2win

step2done:
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

// Span 2: the third weight, then the same loop with one more product.
span2:
	VBROADCASTSD 16(R11), Y2
	TESTQ        R12, R12
	JZ           step3tail

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
	CMPQ BX, R12
	JLT  step3loop

step3tail:
	CMPQ       BX, R9
	JGE        step3done
	MOVQ       BX, CX
	SUBQ       R9, CX
	LEAQ       tailmask<>+32(SB), R11
	VMOVUPD    (R11)(CX*8), Y8
	VMASKMOVPD (SI)(BX*8), Y8, Y4
	VMULPD     Y0, Y4, Y4
	VADDPD     Y4, Y3, Y4               // acc = 0 + w0*s0
	VMASKMOVPD 8(SI)(BX*8), Y8, Y5
	VMULPD     Y1, Y5, Y5
	VADDPD     Y5, Y4, Y4               // acc += w1*s1
	VMASKMOVPD 16(SI)(BX*8), Y8, Y5
	VMULPD     Y2, Y5, Y5
	VADDPD     Y5, Y4, Y4               // acc += w2*s2
	VMASKMOVPD (DX)(BX*8), Y8, Y6
	VCMPPD     GT_OQ, Y4, Y6, Y7
	VBLENDVPD  Y7, Y6, Y4, Y4           // ex where ex > acc
	VMASKMOVPD Y4, Y8, (DI)(BX*8)
	VMOVMSKPD  Y7, R10
	TESTQ      R10, R10
	JNZ        step3win

step3done:
	VZEROUPPER
	MOVQ AX, ret+56(FP)
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
