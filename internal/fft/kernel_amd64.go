//go:build amd64 && !amop_purego

package fft

// amd64 side of the kernel-dispatch seam: runtime CPU feature detection and
// the thin wrappers that route quad-aligned butterfly ranges into the AVX2
// assembly in kernel_amd64.s, falling back to the generic loops for
// misaligned edges, tiny stages, or a CPU without AVX2+FMA.
// Builds with -tags amop_purego exclude this file (and the assembly)
// entirely; kernel_noasm.go then provides the same two entry points.

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
