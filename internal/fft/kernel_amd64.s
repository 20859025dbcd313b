//go:build amd64 && !amop_purego

// AVX2+FMA kernels over deinterleaved float64 planes: the DIT butterflies,
// their DIF transposes, and the convolution's spectral, entry and exit
// passes. Each butterfly loop iteration processes four butterflies: the SoA
// layout makes every load and store a plain 256-bit VMOVUPD, and the packed
// per-stage twiddle tables (built in soa.go) make the twiddle streams
// unit-stride as well. The register budget is the sixteen YMM registers: in
// the DIT butterfly Y0-Y3 cycle as scratch, Y4-Y11 hold the u values of the
// in-flight butterflies, Y12/Y13 hold the current twiddle pair, Y14/Y15 the
// u3*w1 product. Only the forward transform exists in assembly — the inverse
// runs it under the conjugation identity with the sign flips folded into
// the passes around the ladder (see soa.go) — but in both orders: DIT
// (bit-reversed in) and DIF (bit-reversed out).

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func bfly4AVX2(r0, r1, r2, r3, i0, i1, i2, i3, w1r, w1i, w2r, w2i *float64, n int)
//
// Per butterfly (matching butterflies4 in the complex kernel):
//	t0 = x1*w2;  u0 = x0+t0;  u1 = x0-t0
//	t1 = x3*w2;  u2 = x2+t1;  u3 = x2-t1
//	t2 = u2*w1;  v  = u3*w1;  t3 = -i*v = (v_im, -v_re)
//	out0 = u0+t2;  out2 = u0-t2;  out1 = u1+t3;  out3 = u1-t3
TEXT ·bfly4AVX2(SB), NOSPLIT, $0-104
	MOVQ r0+0(FP), AX
	MOVQ r1+8(FP), BX
	MOVQ r2+16(FP), CX
	MOVQ r3+24(FP), DX
	MOVQ i0+32(FP), SI
	MOVQ i1+40(FP), DI
	MOVQ i2+48(FP), R8
	MOVQ i3+56(FP), R9
	MOVQ w1r+64(FP), R10
	MOVQ w1i+72(FP), R11
	MOVQ w2r+80(FP), R12
	MOVQ w2i+88(FP), R13
	MOVQ n+96(FP), R15
	SHLQ $3, R15       // byte length of each lane
	XORQ R14, R14      // running byte offset

bfly4loop:
	CMPQ R14, R15
	JGE  bfly4done

	// w2 = (Y12, Y13)
	VMOVUPD (R12)(R14*1), Y12
	VMOVUPD (R13)(R14*1), Y13

	// t0 = x1 * w2 -> (Y2, Y3)
	VMOVUPD      (BX)(R14*1), Y0
	VMOVUPD      (DI)(R14*1), Y1
	VMULPD       Y12, Y0, Y2
	VFNMADD231PD Y13, Y1, Y2
	VMULPD       Y13, Y0, Y3
	VFMADD231PD  Y12, Y1, Y3

	// u0 = x0+t0 -> (Y4, Y6); u1 = x0-t0 -> (Y5, Y7)
	VMOVUPD (AX)(R14*1), Y0
	VMOVUPD (SI)(R14*1), Y1
	VADDPD  Y2, Y0, Y4
	VSUBPD  Y2, Y0, Y5
	VADDPD  Y3, Y1, Y6
	VSUBPD  Y3, Y1, Y7

	// t1 = x3 * w2 -> (Y2, Y3)
	VMOVUPD      (DX)(R14*1), Y0
	VMOVUPD      (R9)(R14*1), Y1
	VMULPD       Y12, Y0, Y2
	VFNMADD231PD Y13, Y1, Y2
	VMULPD       Y13, Y0, Y3
	VFMADD231PD  Y12, Y1, Y3

	// u2 = x2+t1 -> (Y8, Y10); u3 = x2-t1 -> (Y9, Y11)
	VMOVUPD (CX)(R14*1), Y0
	VMOVUPD (R8)(R14*1), Y1
	VADDPD  Y2, Y0, Y8
	VSUBPD  Y2, Y0, Y9
	VADDPD  Y3, Y1, Y10
	VSUBPD  Y3, Y1, Y11

	// w1 = (Y12, Y13)
	VMOVUPD (R10)(R14*1), Y12
	VMOVUPD (R11)(R14*1), Y13

	// t2 = u2 * w1 -> (Y2, Y3)
	VMULPD       Y12, Y8, Y2
	VFNMADD231PD Y13, Y10, Y2
	VMULPD       Y13, Y8, Y3
	VFMADD231PD  Y12, Y10, Y3

	// v = u3 * w1 -> (Y14, Y15); t3 = (v_im, -v_re)
	VMULPD       Y12, Y9, Y14
	VFNMADD231PD Y13, Y11, Y14
	VMULPD       Y13, Y9, Y15
	VFMADD231PD  Y12, Y11, Y15

	// out0 = u0+t2; out2 = u0-t2
	VADDPD  Y2, Y4, Y0
	VMOVUPD Y0, (AX)(R14*1)
	VSUBPD  Y2, Y4, Y0
	VMOVUPD Y0, (CX)(R14*1)
	VADDPD  Y3, Y6, Y0
	VMOVUPD Y0, (SI)(R14*1)
	VSUBPD  Y3, Y6, Y0
	VMOVUPD Y0, (R8)(R14*1)

	// out1 = u1+t3; out3 = u1-t3 (t3 = (v_im, -v_re))
	VADDPD  Y15, Y5, Y0
	VMOVUPD Y0, (BX)(R14*1)
	VSUBPD  Y15, Y5, Y0
	VMOVUPD Y0, (DX)(R14*1)
	VSUBPD  Y14, Y7, Y0
	VMOVUPD Y0, (DI)(R14*1)
	VADDPD  Y14, Y7, Y0
	VMOVUPD Y0, (R9)(R14*1)

	ADDQ $32, R14
	JMP  bfly4loop

bfly4done:
	VZEROUPPER
	RET

// func bfly2AVX2(r0, r1, i0, i1, wr, wi *float64, n int)
//
// Per butterfly: t = x1*w; out0 = x0+t; out1 = x0-t.
TEXT ·bfly2AVX2(SB), NOSPLIT, $0-56
	MOVQ r0+0(FP), AX
	MOVQ r1+8(FP), BX
	MOVQ i0+16(FP), SI
	MOVQ i1+24(FP), DI
	MOVQ wr+32(FP), R10
	MOVQ wi+40(FP), R11
	MOVQ n+48(FP), R15
	SHLQ $3, R15
	XORQ R14, R14

bfly2loop:
	CMPQ R14, R15
	JGE  bfly2done

	VMOVUPD (R10)(R14*1), Y12
	VMOVUPD (R11)(R14*1), Y13

	// t = x1 * w -> (Y2, Y3)
	VMOVUPD      (BX)(R14*1), Y0
	VMOVUPD      (DI)(R14*1), Y1
	VMULPD       Y12, Y0, Y2
	VFNMADD231PD Y13, Y1, Y2
	VMULPD       Y13, Y0, Y3
	VFMADD231PD  Y12, Y1, Y3

	VMOVUPD (AX)(R14*1), Y0
	VMOVUPD (SI)(R14*1), Y1

	VADDPD  Y2, Y0, Y4
	VMOVUPD Y4, (AX)(R14*1)
	VSUBPD  Y2, Y0, Y4
	VMOVUPD Y4, (BX)(R14*1)
	VADDPD  Y3, Y1, Y4
	VMOVUPD Y4, (SI)(R14*1)
	VSUBPD  Y3, Y1, Y4
	VMOVUPD Y4, (DI)(R14*1)

	ADDQ $32, R14
	JMP  bfly2loop

bfly2done:
	VZEROUPPER
	RET

// func bfly4DIFAVX2(r0, r1, r2, r3, i0, i1, i2, i3, w1r, w1i, w2r, w2i *float64, n int)
//
// The transpose of bfly4AVX2's butterfly, for the DIF ladder:
//	u0 = x0+x2;  u2 = (x0-x2)*w1
//	u1 = x1+x3;  v  = (x1-x3)*w1;  u3 = -i*v = (v_im, -v_re)
//	out0 = u0+u1;  out1 = (u0-u1)*w2;  out2 = u2+u3;  out3 = (u2-u3)*w2
// Y4/Y5 hold u0, Y6/Y7 u2, Y8/Y9 u1, Y10/Y11 v; Y12/Y13 the current
// twiddle pair.
TEXT ·bfly4DIFAVX2(SB), NOSPLIT, $0-104
	MOVQ r0+0(FP), AX
	MOVQ r1+8(FP), BX
	MOVQ r2+16(FP), CX
	MOVQ r3+24(FP), DX
	MOVQ i0+32(FP), SI
	MOVQ i1+40(FP), DI
	MOVQ i2+48(FP), R8
	MOVQ i3+56(FP), R9
	MOVQ w1r+64(FP), R10
	MOVQ w1i+72(FP), R11
	MOVQ w2r+80(FP), R12
	MOVQ w2i+88(FP), R13
	MOVQ n+96(FP), R15
	SHLQ $3, R15
	XORQ R14, R14

bfly4difloop:
	CMPQ R14, R15
	JGE  bfly4difdone

	// w1 = (Y12, Y13)
	VMOVUPD (R10)(R14*1), Y12
	VMOVUPD (R11)(R14*1), Y13

	// u0 = x0+x2 -> (Y4, Y5); d = x0-x2 -> (Y0, Y1)
	VMOVUPD (AX)(R14*1), Y0
	VMOVUPD (SI)(R14*1), Y1
	VMOVUPD (CX)(R14*1), Y2
	VMOVUPD (R8)(R14*1), Y3
	VADDPD  Y2, Y0, Y4
	VADDPD  Y3, Y1, Y5
	VSUBPD  Y2, Y0, Y0
	VSUBPD  Y3, Y1, Y1

	// u2 = d * w1 -> (Y6, Y7)
	VMULPD       Y12, Y0, Y6
	VFNMADD231PD Y13, Y1, Y6
	VMULPD       Y13, Y0, Y7
	VFMADD231PD  Y12, Y1, Y7

	// u1 = x1+x3 -> (Y8, Y9); e = x1-x3 -> (Y0, Y1)
	VMOVUPD (BX)(R14*1), Y0
	VMOVUPD (DI)(R14*1), Y1
	VMOVUPD (DX)(R14*1), Y2
	VMOVUPD (R9)(R14*1), Y3
	VADDPD  Y2, Y0, Y8
	VADDPD  Y3, Y1, Y9
	VSUBPD  Y2, Y0, Y0
	VSUBPD  Y3, Y1, Y1

	// v = e * w1 -> (Y10, Y11); u3 = (v_im, -v_re)
	VMULPD       Y12, Y0, Y10
	VFNMADD231PD Y13, Y1, Y10
	VMULPD       Y13, Y0, Y11
	VFMADD231PD  Y12, Y1, Y11

	// w2 = (Y12, Y13)
	VMOVUPD (R12)(R14*1), Y12
	VMOVUPD (R13)(R14*1), Y13

	// out0 = u0+u1; f = u0-u1 -> (Y0, Y1); out1 = f*w2
	VADDPD       Y8, Y4, Y2
	VMOVUPD      Y2, (AX)(R14*1)
	VADDPD       Y9, Y5, Y3
	VMOVUPD      Y3, (SI)(R14*1)
	VSUBPD       Y8, Y4, Y0
	VSUBPD       Y9, Y5, Y1
	VMULPD       Y12, Y0, Y2
	VFNMADD231PD Y13, Y1, Y2
	VMOVUPD      Y2, (BX)(R14*1)
	VMULPD       Y13, Y0, Y3
	VFMADD231PD  Y12, Y1, Y3
	VMOVUPD      Y3, (DI)(R14*1)

	// out2 = u2+u3; g = u2-u3 -> (Y0, Y1); out3 = g*w2
	VADDPD       Y11, Y6, Y2
	VMOVUPD      Y2, (CX)(R14*1)
	VSUBPD       Y10, Y7, Y3
	VMOVUPD      Y3, (R8)(R14*1)
	VSUBPD       Y11, Y6, Y0
	VADDPD       Y10, Y7, Y1
	VMULPD       Y12, Y0, Y2
	VFNMADD231PD Y13, Y1, Y2
	VMOVUPD      Y2, (DX)(R14*1)
	VMULPD       Y13, Y0, Y3
	VFMADD231PD  Y12, Y1, Y3
	VMOVUPD      Y3, (R9)(R14*1)

	ADDQ $32, R14
	JMP  bfly4difloop

bfly4difdone:
	VZEROUPPER
	RET

// func bfly2DIFAVX2(r0, r1, i0, i1, wr, wi *float64, n int)
//
// The transpose of bfly2AVX2's butterfly: out0 = x0+x1; out1 = (x0-x1)*w.
TEXT ·bfly2DIFAVX2(SB), NOSPLIT, $0-56
	MOVQ r0+0(FP), AX
	MOVQ r1+8(FP), BX
	MOVQ i0+16(FP), SI
	MOVQ i1+24(FP), DI
	MOVQ wr+32(FP), R10
	MOVQ wi+40(FP), R11
	MOVQ n+48(FP), R15
	SHLQ $3, R15
	XORQ R14, R14

bfly2difloop:
	CMPQ R14, R15
	JGE  bfly2difdone

	VMOVUPD (R10)(R14*1), Y12
	VMOVUPD (R11)(R14*1), Y13

	VMOVUPD (AX)(R14*1), Y0
	VMOVUPD (SI)(R14*1), Y1
	VMOVUPD (BX)(R14*1), Y2
	VMOVUPD (DI)(R14*1), Y3

	VADDPD  Y2, Y0, Y4
	VMOVUPD Y4, (AX)(R14*1)
	VADDPD  Y3, Y1, Y5
	VMOVUPD Y5, (SI)(R14*1)

	// d = x0-x1 -> (Y0, Y1); out1 = d*w
	VSUBPD       Y2, Y0, Y0
	VSUBPD       Y3, Y1, Y1
	VMULPD       Y12, Y0, Y6
	VFNMADD231PD Y13, Y1, Y6
	VMOVUPD      Y6, (BX)(R14*1)
	VMULPD       Y13, Y0, Y7
	VFMADD231PD  Y12, Y1, Y7
	VMOVUPD      Y7, (DI)(R14*1)

	ADDQ $32, R14
	JMP  bfly2difloop

bfly2difdone:
	VZEROUPPER
	RET

// The spectral pass (convolve.go) on groups of four mirrored quad pairs.
// The four a-side quads of a group are contiguous, and so are the four
// b-side quads, in reverse order; a 4x4 transpose on load turns each into
// slot vectors whose lane l belongs to pair u0+l, so every step of the
// pass is lane-wise: the DIF's trivial last stage, the unpack, the two
// multiplies, the repack and the DIT's trivial first stage. The transposed
// quads, multipliers and twiddles wait in the frame between the steps:
//	0..255     Za: slot r of the a side at 64r (re) and 64r+32 (im)
//	256..511   Zb: the b side, likewise
//	512..767   Ma: the a side's multipliers
//	768..1023  Mb: the b side's multipliers
//	1024..1279 W:  the slot twiddles (slotTwiddles)

// TLOAD loads the four quads at base+o0, o1, o2, o3 (lanes 0..3) and
// transposes them into the slot vectors c0..c3, using Y0..Y3.
#define TLOAD(base, o0, o1, o2, o3, c0, c1, c2, c3) \
	VMOVUPD     o0(base), X0; VINSERTF128 $1, o2(base), Y0, Y0; \
	VMOVUPD     o1(base), X1; VINSERTF128 $1, o3(base), Y1, Y1; \
	VMOVUPD     o0+16(base), X2; VINSERTF128 $1, o2+16(base), Y2, Y2; \
	VMOVUPD     o1+16(base), X3; VINSERTF128 $1, o3+16(base), Y3, Y3; \
	VUNPCKLPD   Y1, Y0, c0; VUNPCKHPD Y1, Y0, c1; \
	VUNPCKLPD   Y3, Y2, c2; VUNPCKHPD Y3, Y2, c3

// TSTORE is TLOAD's inverse: the slot vectors c0..c3 go back to the quads
// at base+o0..o3, using Y10..Y13.
#define TSTORE(base, o0, o1, o2, o3, c0, c1, c2, c3) \
	VUNPCKLPD    c1, c0, Y10; VUNPCKHPD c1, c0, Y11; \
	VUNPCKLPD    c3, c2, Y12; VUNPCKHPD c3, c2, Y13; \
	VMOVUPD      X10, o0(base); VEXTRACTF128 $1, Y10, o2(base); \
	VMOVUPD      X11, o1(base); VEXTRACTF128 $1, Y11, o3(base); \
	VMOVUPD      X12, o0+16(base); VEXTRACTF128 $1, Y12, o2+16(base); \
	VMOVUPD      X13, o1+16(base); VEXTRACTF128 $1, Y13, o3+16(base)

// QUADDIF applies the DIF's trivial last stage (quadDIF) to the slot
// vectors re Y4..Y7, im Y8..Y11 and stores the result at frame offset z.
#define QUADDIF(z) \
	VADDPD  Y6, Y4, Y0; VADDPD Y10, Y8, Y1; \
	VSUBPD  Y6, Y4, Y2; VSUBPD Y10, Y8, Y3; \
	VADDPD  Y7, Y5, Y12; VADDPD Y11, Y9, Y13; \
	VSUBPD  Y11, Y9, Y4; VSUBPD Y5, Y7, Y6; \
	VADDPD  Y12, Y0, Y5; VMOVUPD Y5, z+0(SP); \
	VADDPD  Y13, Y1, Y5; VMOVUPD Y5, z+32(SP); \
	VSUBPD  Y12, Y0, Y5; VMOVUPD Y5, z+64(SP); \
	VSUBPD  Y13, Y1, Y5; VMOVUPD Y5, z+96(SP); \
	VADDPD  Y4, Y2, Y5; VMOVUPD Y5, z+128(SP); \
	VADDPD  Y6, Y3, Y5; VMOVUPD Y5, z+160(SP); \
	VSUBPD  Y4, Y2, Y5; VMOVUPD Y5, z+192(SP); \
	VSUBPD  Y6, Y3, Y5; VMOVUPD Y5, z+224(SP)

// PAIR runs spectralPair on one slot: a = Z[k] at frame offset za,
// b = Z[m-k] at zb, the twiddle at w, multipliers M[k] at ma and M[m-k] at
// mb. The results replace a and b. Y14 holds the scale s, Y15 the sign
// mask.
#define PAIR(za, zb, w, ma, mb) \
	VMOVUPD      za(SP), Y0; VMOVUPD za+32(SP), Y1; \
	VMOVUPD      zb(SP), Y2; VMOVUPD zb+32(SP), Y3; \
	VMOVUPD      w(SP), Y4; VMOVUPD w+32(SP), Y5; \
	VADDPD       Y2, Y0, Y6; VSUBPD Y3, Y1, Y7; \
	VSUBPD       Y2, Y0, Y8; VADDPD Y3, Y1, Y9; \
	VMULPD       Y9, Y4, Y10; VFMADD231PD Y8, Y5, Y10; \
	VMULPD       Y9, Y5, Y11; VFNMADD231PD Y8, Y4, Y11; \
	VADDPD       Y10, Y6, Y0; VADDPD Y11, Y7, Y1; \
	VSUBPD       Y10, Y6, Y2; VSUBPD Y11, Y7, Y3; \
	VMOVUPD      ma(SP), Y12; VMOVUPD ma+32(SP), Y13; \
	VMULPD       Y12, Y0, Y6; VFNMADD231PD Y13, Y1, Y6; \
	VMULPD       Y13, Y0, Y7; VFMADD231PD Y12, Y1, Y7; \
	VMOVUPD      mb(SP), Y12; VMOVUPD mb+32(SP), Y13; \
	VMULPD       Y12, Y2, Y8; VFMADD231PD Y13, Y3, Y8; \
	VMULPD       Y12, Y3, Y9; VFNMADD231PD Y13, Y2, Y9; \
	VADDPD       Y8, Y6, Y0; VMULPD Y14, Y0, Y0; \
	VADDPD       Y9, Y7, Y1; VMULPD Y14, Y1, Y1; \
	VSUBPD       Y8, Y6, Y2; VMULPD Y14, Y2, Y2; \
	VSUBPD       Y9, Y7, Y3; VMULPD Y14, Y3, Y3; \
	VMULPD       Y2, Y4, Y10; VFMADD231PD Y3, Y5, Y10; \
	VMULPD       Y3, Y4, Y11; VFNMADD231PD Y2, Y5, Y11; \
	VSUBPD       Y11, Y0, Y6; VMOVUPD Y6, za(SP); \
	VADDPD       Y10, Y1, Y7; VXORPD Y15, Y7, Y7; VMOVUPD Y7, za+32(SP); \
	VADDPD       Y11, Y0, Y6; VMOVUPD Y6, zb(SP); \
	VSUBPD       Y10, Y1, Y7; VMOVUPD Y7, zb+32(SP)

// QUADSTORE applies the DIT's trivial first stage (quadStore) to the slot
// vectors at frame offset z and stores them to the quads at o0..o3 of the
// re and im planes.
#define QUADSTORE(z, rbase, ibase, o0, o1, o2, o3) \
	VMOVUPD z+0(SP), Y0; VMOVUPD z+64(SP), Y1; \
	VMOVUPD z+128(SP), Y2; VMOVUPD z+192(SP), Y3; \
	VMOVUPD z+32(SP), Y4; VMOVUPD z+96(SP), Y5; \
	VMOVUPD z+160(SP), Y6; VMOVUPD z+224(SP), Y7; \
	VADDPD  Y1, Y0, Y8; VSUBPD Y1, Y0, Y9; \
	VADDPD  Y3, Y2, Y10; VSUBPD Y3, Y2, Y11; \
	VADDPD  Y5, Y4, Y12; VSUBPD Y5, Y4, Y13; \
	VADDPD  Y7, Y6, Y0; VSUBPD Y7, Y6, Y1; \
	VADDPD  Y10, Y8, Y2; VSUBPD Y10, Y8, Y3; \
	VADDPD  Y1, Y9, Y4; VSUBPD Y1, Y9, Y5; \
	VADDPD  Y0, Y12, Y6; VSUBPD Y0, Y12, Y7; \
	VSUBPD  Y11, Y13, Y8; VADDPD Y11, Y13, Y9; \
	TSTORE(rbase, o0, o1, o2, o3, Y2, Y4, Y3, Y5); \
	TSTORE(ibase, o0, o1, o2, o3, Y6, Y8, Y7, Y9)

// func spectralAVX2(ar, ai, br, bi, amr, ami, bmr, bmi, wr, wi *float64, s, h float64, n int)
//
// Runs n groups. The a-side pointers address the group's first a quad and
// advance by four quads per group; the b-side pointers address its lowest
// b quad and retreat by four; the twiddle pointers address the group's
// four pair twiddles and advance by four. h is sqrt(2)/2.
TEXT ·spectralAVX2(SB), $1280-104
	MOVQ ar+0(FP), AX
	MOVQ ai+8(FP), BX
	MOVQ br+16(FP), CX
	MOVQ bi+24(FP), DX
	MOVQ amr+32(FP), SI
	MOVQ ami+40(FP), DI
	MOVQ bmr+48(FP), R8
	MOVQ bmi+56(FP), R9
	MOVQ wr+64(FP), R10
	MOVQ wi+72(FP), R11
	VBROADCASTSD s+80(FP), Y14
	MOVQ n+96(FP), R12
	VPCMPEQQ Y15, Y15, Y15
	VPSLLQ   $63, Y15, Y15

spectralloop:
	TLOAD(AX, 0, 32, 64, 96, Y4, Y5, Y6, Y7)
	TLOAD(BX, 0, 32, 64, 96, Y8, Y9, Y10, Y11)
	QUADDIF(0)
	TLOAD(CX, 96, 64, 32, 0, Y4, Y5, Y6, Y7)
	TLOAD(DX, 96, 64, 32, 0, Y8, Y9, Y10, Y11)
	QUADDIF(256)

	TLOAD(SI, 0, 32, 64, 96, Y4, Y5, Y6, Y7)
	VMOVUPD Y4, 512(SP)
	VMOVUPD Y5, 576(SP)
	VMOVUPD Y6, 640(SP)
	VMOVUPD Y7, 704(SP)
	TLOAD(DI, 0, 32, 64, 96, Y4, Y5, Y6, Y7)
	VMOVUPD Y4, 544(SP)
	VMOVUPD Y5, 608(SP)
	VMOVUPD Y6, 672(SP)
	VMOVUPD Y7, 736(SP)
	TLOAD(R8, 96, 64, 32, 0, Y4, Y5, Y6, Y7)
	VMOVUPD Y4, 768(SP)
	VMOVUPD Y5, 832(SP)
	VMOVUPD Y6, 896(SP)
	VMOVUPD Y7, 960(SP)
	TLOAD(R9, 96, 64, 32, 0, Y4, Y5, Y6, Y7)
	VMOVUPD Y4, 800(SP)
	VMOVUPD Y5, 864(SP)
	VMOVUPD Y6, 928(SP)
	VMOVUPD Y7, 992(SP)

	// Slot twiddles from the pair twiddle t: t, -i*t, h*(t_re+t_im,
	// t_im-t_re), h*(t_im-t_re, -(t_re+t_im)).
	VMOVUPD      (R10), Y4
	VMOVUPD      (R11), Y5
	VMOVUPD      Y4, 1024(SP)
	VMOVUPD      Y5, 1056(SP)
	VMOVUPD      Y5, 1088(SP)
	VXORPD       Y15, Y4, Y6
	VMOVUPD      Y6, 1120(SP)
	VBROADCASTSD h+88(FP), Y8
	VADDPD       Y5, Y4, Y6
	VMULPD       Y8, Y6, Y6
	VSUBPD       Y4, Y5, Y7
	VMULPD       Y8, Y7, Y7
	VMOVUPD      Y6, 1152(SP)
	VMOVUPD      Y7, 1184(SP)
	VMOVUPD      Y7, 1216(SP)
	VXORPD       Y15, Y6, Y6
	VMOVUPD      Y6, 1248(SP)

	// Slot r of the a side pairs with slot 3-r of the b side.
	PAIR(0, 448, 1024, 512, 960)
	PAIR(64, 384, 1088, 576, 896)
	PAIR(128, 320, 1152, 640, 832)
	PAIR(192, 256, 1216, 704, 768)

	QUADSTORE(0, AX, BX, 0, 32, 64, 96)
	QUADSTORE(256, CX, DX, 96, 64, 32, 0)

	ADDQ $128, AX
	ADDQ $128, BX
	SUBQ $128, CX
	SUBQ $128, DX
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $128, R8
	SUBQ $128, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ R12
	JNZ  spectralloop

	VZEROUPPER
	RET

// func packAVX2(x, re, im *float64, n int)
//
// Deinterleaves n complex samples (x[2j], x[2j+1]) into the planes; n must
// be a positive multiple of 4.
TEXT ·packAVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), AX
	MOVQ re+8(FP), BX
	MOVQ im+16(FP), CX
	MOVQ n+24(FP), DX
	SHLQ $3, DX
	XORQ SI, SI

packloop:
	CMPQ SI, DX
	JGE  packdone
	// Y0 = (x0, x1, x4, x5), Y1 = (x2, x3, x6, x7)
	VMOVUPD     (AX), X0
	VINSERTF128 $1, 32(AX), Y0, Y0
	VMOVUPD     16(AX), X1
	VINSERTF128 $1, 48(AX), Y1, Y1
	VUNPCKLPD   Y1, Y0, Y2
	VUNPCKHPD   Y1, Y0, Y3
	VMOVUPD     Y2, (BX)(SI*1)
	VMOVUPD     Y3, (CX)(SI*1)
	ADDQ        $64, AX
	ADDQ        $32, SI
	JMP         packloop

packdone:
	VZEROUPPER
	RET

// func unzipAVX2(re, im, out *float64, n int)
//
// Interleaves n complex samples back into out as (re[j], -im[j]); n must
// be a positive multiple of 4.
TEXT ·unzipAVX2(SB), NOSPLIT, $0-32
	MOVQ re+0(FP), AX
	MOVQ im+8(FP), BX
	MOVQ out+16(FP), CX
	MOVQ n+24(FP), DX
	SHLQ $3, DX
	XORQ SI, SI
	VPCMPEQQ Y15, Y15, Y15
	VPSLLQ   $63, Y15, Y15

unziploop:
	CMPQ SI, DX
	JGE  unzipdone
	VMOVUPD    (AX)(SI*1), Y0
	VMOVUPD    (BX)(SI*1), Y1
	VXORPD     Y15, Y1, Y1
	// Y2 = (r0, -i0, r2, -i2), Y3 = (r1, -i1, r3, -i3)
	VUNPCKLPD  Y1, Y0, Y2
	VUNPCKHPD  Y1, Y0, Y3
	VPERM2F128 $0x20, Y3, Y2, Y4
	VPERM2F128 $0x31, Y3, Y2, Y5
	VMOVUPD    Y4, (CX)
	VMOVUPD    Y5, 32(CX)
	ADDQ       $64, CX
	ADDQ       $32, SI
	JMP        unziploop

unzipdone:
	VZEROUPPER
	RET
