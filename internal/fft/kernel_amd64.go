//go:build amd64 && !amop_purego

package fft

import "math/bits"

// amd64 side of the kernel-dispatch seam: runtime CPU feature detection and
// the thin wrappers that route quad-aligned butterfly ranges (both
// directions), the convolution's spectral pass and its entry and exit
// passes into the AVX2 assembly in kernel_amd64.s, falling back to the
// generic loops for misaligned edges, tiny sizes, or a CPU without
// AVX2+FMA. Builds with -tags amop_purego exclude this file (and the
// assembly) entirely; kernel_noasm.go then provides the same entry points.

// kernelArch names the accelerated kernel this build can dispatch to.
const kernelArch = "avx2"

// asmOK records whether the CPU + OS expose AVX2, FMA, and saved YMM state.
// Detection runs once at package initialization; the result is immutable.
var asmOK = detectAVX2()

// kernelAsmAvailable reports whether the assembly kernel is usable: the
// binary carries it (build tags) and the CPU supports it.
func kernelAsmAvailable() bool { return asmOK }

// detectAVX2 checks CPUID for AVX2+FMA and XGETBV for OS-managed YMM state
// (the XGETBV read is gated on OSXSAVE, so it can never fault).
func detectAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		cpuidFMA     = 1 << 12
		cpuidOSXSAVE = 1 << 27
		cpuidAVX     = 1 << 28
	)
	if ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 || ecx1&cpuidFMA == 0 {
		return false
	}
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const cpuidAVX2 = 1 << 5
	return ebx7&cpuidAVX2 != 0
}

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0. Callers must have verified OSXSAVE first.
func xgetbv0() (eax, edx uint32)

// bfly4AVX2 applies n radix-4 butterflies over the eight lane pointers and
// four packed twiddle pointers; n must be a positive multiple of 4.
//
//go:noescape
func bfly4AVX2(r0, r1, r2, r3, i0, i1, i2, i3, w1r, w1i, w2r, w2i *float64, n int)

// bfly2AVX2 applies n radix-2 butterflies over the four lane pointers with
// unit-stride twiddles; n must be a positive multiple of 4.
//
//go:noescape
func bfly2AVX2(r0, r1, i0, i1, wr, wi *float64, n int)

// bfly4Range dispatches radix-4 butterflies j in [jLo, jHi) of the block at
// base. Callers produce quad-aligned ranges for every stage the assembly
// can take (h is a multiple of 4 and parallel chunks are quad-granular);
// anything else lands on the generic kernel.
func bfly4Range(re, im []float64, base int, st *soaStage, jLo, jHi int) {
	n := jHi - jLo
	if n <= 0 {
		return
	}
	if n&3 != 0 || !kernelAsmAvailable() {
		bfly4RangeGeneric(re, im, base, st, jLo, jHi)
		return
	}
	h := st.h
	bfly4AVX2(
		&re[base+jLo], &re[base+h+jLo], &re[base+2*h+jLo], &re[base+3*h+jLo],
		&im[base+jLo], &im[base+h+jLo], &im[base+2*h+jLo], &im[base+3*h+jLo],
		&st.w1r[jLo], &st.w1i[jLo], &st.w2r[jLo], &st.w2i[jLo], n)
}

// bfly2Range dispatches span-n radix-2 butterflies j in [jLo, jHi); half is
// n/2 and the twiddles are the split base table.
func bfly2Range(re, im, twRe, twIm []float64, half, jLo, jHi int) {
	n := jHi - jLo
	if n <= 0 {
		return
	}
	if n&3 != 0 || !kernelAsmAvailable() {
		bfly2RangeGeneric(re, im, twRe, twIm, half, jLo, jHi)
		return
	}
	bfly2AVX2(&re[jLo], &re[half+jLo], &im[jLo], &im[half+jLo], &twRe[jLo], &twIm[jLo], n)
}

// bfly4DIFAVX2 applies n transposed radix-4 butterflies (the DIF ladder's)
// over the same operands as bfly4AVX2; n must be a positive multiple of 4.
//
//go:noescape
func bfly4DIFAVX2(r0, r1, r2, r3, i0, i1, i2, i3, w1r, w1i, w2r, w2i *float64, n int)

// bfly2DIFAVX2 applies n transposed radix-2 butterflies over the same
// operands as bfly2AVX2; n must be a positive multiple of 4.
//
//go:noescape
func bfly2DIFAVX2(r0, r1, i0, i1, wr, wi *float64, n int)

// bfly4DIFRange dispatches transposed radix-4 butterflies j in [jLo, jHi)
// of the block at base, like bfly4Range.
func bfly4DIFRange(re, im []float64, base int, st *soaStage, jLo, jHi int) {
	n := jHi - jLo
	if n <= 0 {
		return
	}
	if n&3 != 0 || !kernelAsmAvailable() {
		bfly4DIFRangeGeneric(re, im, base, st, jLo, jHi)
		return
	}
	h := st.h
	bfly4DIFAVX2(
		&re[base+jLo], &re[base+h+jLo], &re[base+2*h+jLo], &re[base+3*h+jLo],
		&im[base+jLo], &im[base+h+jLo], &im[base+2*h+jLo], &im[base+3*h+jLo],
		&st.w1r[jLo], &st.w1i[jLo], &st.w2r[jLo], &st.w2i[jLo], n)
}

// bfly2DIFRange dispatches transposed span-n radix-2 butterflies j in
// [jLo, jHi), like bfly2Range.
func bfly2DIFRange(re, im, twRe, twIm []float64, half, jLo, jHi int) {
	n := jHi - jLo
	if n <= 0 {
		return
	}
	if n&3 != 0 || !kernelAsmAvailable() {
		bfly2DIFRangeGeneric(re, im, twRe, twIm, half, jLo, jHi)
		return
	}
	bfly2DIFAVX2(&re[jLo], &re[half+jLo], &im[jLo], &im[half+jLo], &twRe[jLo], &twIm[jLo], n)
}

// spectralAVX2 runs the spectral pass on n groups of four mirrored quad
// pairs (see spectralGroups for the operands); n must be positive.
//
//go:noescape
func spectralAVX2(ar, ai, br, bi, amr, ami, bmr, bmi, wr, wi *float64, s, h float64, n int)

// spectralGroups dispatches the spectral pass on groups g in [gLo, gHi).
// Group 0 (pairs 1..3, whose quads span three octaves) runs on the generic
// loop; each later group lies in one octave, u in [top, 2*top), so a run of
// groups within an octave is one assembly call.
func (p *RPlan) spectralGroups(re, im, mult []float64, gLo, gHi int) {
	if !kernelAsmAvailable() || p.half < 64 {
		p.spectralGroupsGeneric(re, im, mult, gLo, gHi)
		return
	}
	if gLo == 0 && gHi > 0 {
		p.spectralGroupsGeneric(re, im, mult, 0, 1)
		gLo = 1
	}
	m := p.half
	mr, mi := mult[:m+1], mult[m+1:]
	s := 0.25 / float64(m)
	for g := gLo; g < gHi; {
		u0 := 4 * g
		top := 1 << (bits.Len(uint(u0)) - 1)
		end := min(gHi, top/2)
		a, b := 4*(u0+top), 4*(5*top-4-u0)
		// The groups' a quads run up from a, their b quads down from b.
		_, _, _ = re[a+16*(end-g)-1], re[b+15], p.pairIm[u0+4*(end-g)-1]
		spectralAVX2(&re[a], &im[a], &re[b], &im[b], &mr[a], &mi[a], &mr[b], &mi[b],
			&p.pairRe[u0], &p.pairIm[u0], s, sqrtHalf, end-g)
		g = end
	}
}

// packAVX2 deinterleaves n complex samples of x into the planes; n must be
// a positive multiple of 4.
//
//go:noescape
func packAVX2(x, re, im *float64, n int)

// unzipAVX2 interleaves n complex samples of the planes into out as
// (re[j], -im[j]); n must be a positive multiple of 4.
//
//go:noescape
func unzipAVX2(re, im, out *float64, n int)

// packSamples dispatches the entry pass's full samples j in [lo, hi):
// re[j], im[j] = x[2j], x[2j+1].
func packSamples(x, re, im []float64, lo, hi int) {
	if n := (hi - lo) &^ 3; n > 0 && kernelAsmAvailable() {
		_, _, _ = x[2*(lo+n)-1], re[lo+n-1], im[lo+n-1]
		packAVX2(&x[2*lo], &re[lo], &im[lo], n)
		lo += n
	}
	packSamplesGeneric(x, re, im, lo, hi)
}

// unzipSamples dispatches the exit pass's full samples j in [lo, hi):
// out[2j], out[2j+1] = re[j], -im[j].
func unzipSamples(re, im, out []float64, lo, hi int) {
	if n := (hi - lo) &^ 3; n > 0 && kernelAsmAvailable() {
		_, _, _ = re[lo+n-1], im[lo+n-1], out[2*(lo+n)-1]
		unzipAVX2(&re[lo], &im[lo], &out[2*lo], n)
		lo += n
	}
	unzipSamplesGeneric(re, im, out, lo, hi)
}
