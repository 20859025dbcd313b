//go:build !amd64 || amop_purego

package fft

// Non-assembly side of the kernel-dispatch seam: platforms without the
// AVX2 kernel (or builds with -tags amop_purego) route every butterfly
// range, spectral pass and entry/exit pass straight to the portable loops.

// kernelArch names the accelerated kernel this build can dispatch to; the
// generic build has none.
const kernelArch = "generic"

// kernelAsmAvailable reports whether an assembly kernel is compiled in.
func kernelAsmAvailable() bool { return false }

func bfly4Range(re, im []float64, base int, st *soaStage, jLo, jHi int) {
	if jHi > jLo {
		bfly4RangeGeneric(re, im, base, st, jLo, jHi)
	}
}

func bfly2Range(re, im, twRe, twIm []float64, half, jLo, jHi int) {
	if jHi > jLo {
		bfly2RangeGeneric(re, im, twRe, twIm, half, jLo, jHi)
	}
}

func bfly4DIFRange(re, im []float64, base int, st *soaStage, jLo, jHi int) {
	if jHi > jLo {
		bfly4DIFRangeGeneric(re, im, base, st, jLo, jHi)
	}
}

func bfly2DIFRange(re, im, twRe, twIm []float64, half, jLo, jHi int) {
	if jHi > jLo {
		bfly2DIFRangeGeneric(re, im, twRe, twIm, half, jLo, jHi)
	}
}

func (p *RPlan) spectralGroups(re, im, mult []float64, gLo, gHi int) {
	p.spectralGroupsGeneric(re, im, mult, gLo, gHi)
}

func packSamples(x, re, im []float64, lo, hi int) { packSamplesGeneric(x, re, im, lo, hi) }

func unzipSamples(re, im, out []float64, lo, hi int) { unzipSamplesGeneric(re, im, out, lo, hi) }
