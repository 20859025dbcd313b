package fft

// Plane-native real-input transforms. The stencil evolution hot path
// multiplies spectra element-wise between a forward and an inverse, so it
// never needs a complex128 view of the data: ForwardSoA and InverseSoA carry
// the spectrum as split re/im planes end to end — the pack fuses directly
// with the inner plan's bit-reversal gather and first butterfly, the
// unpack/repack recombination runs over float64 lanes, and the only
// complex128 left in the pipeline is the caller's multiplier table.
//
// Layout: sr/si hold the half spectrum, length n/2+1, with the conjugate
// symmetry X[n-k] = conj(X[k]) of real input implied.

import (
	"fmt"

	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/scratch"
)

// ForwardSoA computes the half spectrum of the real input x into split
// planes: sr[k] + i*si[k] = sum_j x[j] * exp(-2*pi*i*j*k/n) for k in
// [0, n/2]. The remaining frequencies follow from conjugate symmetry and are
// not stored. len(x) must be n; len(sr) and len(si) must be n/2 + 1. Prior
// contents of sr/si are ignored.
func (p *RPlan) ForwardSoA(x, sr, si []float64) {
	if len(x) != p.n || len(sr) != p.half+1 || len(si) != p.half+1 {
		panic(fmt.Sprintf("fft: RPlan size %d: got input %d, spectrum planes %d/%d",
			p.n, len(x), len(sr), len(si)))
	}
	addTransformed(8 * p.n)
	m := p.half
	if m < 4 {
		smallForward(x, sr, si)
		return
	}
	soaTransforms.Add(1)

	// Fused entry: view x as m packed complex samples (even samples real,
	// odd samples imaginary), gather them in the inner plan's bit-reversed
	// order, and apply the trivial first radix-4 butterfly — pack, permute,
	// and two butterfly stages in x's single read pass.
	re := scratch.Floats(m)
	im := scratch.Floats(m)
	inner := p.inner
	parallel := m >= ParThreshold && par.Workers() > 1
	if parallel {
		par.For(m/4, 1024, func(qLo, qHi int) { packGatherQuads(x, inner.rev, re, im, qLo, qHi) })
	} else {
		packGatherQuads(x, inner.rev, re, im, 0, m/4)
	}
	inner.soaStages(re, im)

	// Unpack: split each Z[k] into the even/odd sample spectra and recombine
	// on the size-n circle. k = 0 (and the Nyquist bin m) read only Z[0].
	z0r, z0i := re[0], im[0]
	if parallel {
		par.For(m/2-1, 2048, func(a, b int) { p.unpackSoARange(sr, si, re, im, 1+a, 1+b) })
	} else {
		p.unpackSoARange(sr, si, re, im, 1, m/2)
	}
	// Self-paired bin: Z[m/2] has E = (Re Z, 0) and O = (Im Z, 0).
	k := m / 2
	sr[k] = re[k] + p.rtwRe[k]*im[k]
	si[k] = p.rtwIm[k] * im[k]
	sr[0], si[0] = z0r+z0i, 0
	sr[m], si[m] = z0r-z0i, 0
	scratch.PutFloats(re)
	scratch.PutFloats(im)
}

// packGatherQuads is the real-input entry pass: gather four packed samples
// z[rev[i]] = (x[2*rev[i]], x[2*rev[i]+1]) per quad and butterfly them with
// the trivial twiddles via quadStore.
func packGatherQuads(x []float64, rev []int32, re, im []float64, qLo, qHi int) {
	for q := qLo; q < qHi; q++ {
		i := 4 * q
		r0, r1, r2, r3 := rev[i], rev[i+1], rev[i+2], rev[i+3]
		quadStore(re, im, i,
			x[2*r0], x[2*r0+1], x[2*r1], x[2*r1+1],
			x[2*r2], x[2*r2+1], x[2*r3], x[2*r3+1])
	}
}

// unpackSoARange recombines spectrum pairs (k, m-k) for k in [lo, hi),
// reading the transformed planes and writing the caller's spectrum planes.
// X[k] = E[k] + w^k O[k]; X[m-k] = E[m-k] - conj(w^k) O[m-k] with
// E[m-k] = conj(E[k]) and O[m-k] = conj(O[k]) (w^(m-k) = -conj(w^k)), which
// folds to one conjugation of the already-computed product:
// X[m-k] = conj(E[k] - w^k O[k]).
func (p *RPlan) unpackSoARange(sr, si, re, im []float64, lo, hi int) {
	m := p.half
	rtwRe, rtwIm := p.rtwRe, p.rtwIm
	_, _, _, _ = re[m-lo], im[m-lo], sr[m-lo], si[m-lo]
	_, _ = rtwRe[hi-1], rtwIm[hi-1]
	for k := lo; k < hi; k++ {
		zkr, zki := re[k], im[k]
		zmr, zmi := re[m-k], im[m-k]
		ekr, eki := (zkr+zmr)*0.5, (zki-zmi)*0.5 // E[k] = (Z[k] + conj(Z[m-k]))/2
		dr, di := (zkr-zmr)*0.5, (zki+zmi)*0.5
		okr, oki := di, -dr // O[k] = -i * (Z[k] - conj(Z[m-k]))/2
		wr, wi := rtwRe[k], rtwIm[k]
		tr := wr*okr - wi*oki
		ti := wr*oki + wi*okr
		sr[k], si[k] = ekr+tr, eki+ti
		sr[m-k], si[m-k] = ekr-tr, ti-eki
	}
}

// InverseSoA recovers the real signal from its half spectrum held as split
// planes, including the 1/n scaling, so that InverseSoA(ForwardSoA(x)) == x
// up to rounding. len(sr) and len(si) must be n/2 + 1 and len(x) must be n.
// The spectrum planes are destroyed in the process.
func (p *RPlan) InverseSoA(sr, si, x []float64) {
	if len(x) != p.n || len(sr) != p.half+1 || len(si) != p.half+1 {
		panic(fmt.Sprintf("fft: RPlan size %d: got input %d, spectrum planes %d/%d",
			p.n, len(x), len(sr), len(si)))
	}
	addTransformed(8 * p.n)
	m := p.half
	if m < 4 {
		smallInverse(sr, si, x)
		return
	}
	soaTransforms.Add(1)

	// Repack in place: rebuild the packed spectrum Z[k] = E[k] + i*O[k] with
	// the 1/m normalization folded into the scale — except that what we store
	// is conj(Z), because the inverse inner transform runs the forward-only
	// kernel under IDFT(Z) = conj(DFT(conj(Z))): the entry conjugation folds
	// into the repack and the exit conjugation into the unzip.
	invm := 1 / float64(m)
	scale := 0.5 * invm
	s0, sm := sr[0], sr[m]
	parallel := m >= ParThreshold && par.Workers() > 1
	if parallel {
		par.For(m/2-1, 2048, func(a, b int) { p.repackSoARange(sr, si, scale, 1+a, 1+b) })
	} else {
		p.repackSoARange(sr, si, scale, 1, m/2)
	}
	// Self-paired bin, conjugated: Z[m/2] = E + i*conj(w)*O with
	// E = (sr[k]/m, 0) and (X[k] - conj(X[k]))/2m = (0, si[k]/m).
	k := m / 2
	d := si[k] * invm
	sr[k], si[k] = sr[k]*invm-p.rtwRe[k]*d, -p.rtwIm[k]*d
	sr[0], si[0] = (s0+sm)*scale, -(s0-sm)*scale

	// Gather conj(Z) in bit-reversed order with the fused first butterfly,
	// run the forward stage ladder, and unzip with the exit conjugation:
	// even output samples from the real plane, odd from the negated
	// imaginary plane.
	re := scratch.Floats(m)
	im := scratch.Floats(m)
	inner := p.inner
	if parallel {
		par.For(m/4, 1024, func(qLo, qHi int) { specGatherQuads(sr, si, inner.rev, re, im, qLo, qHi) })
	} else {
		specGatherQuads(sr, si, inner.rev, re, im, 0, m/4)
	}
	inner.soaStages(re, im)
	if parallel {
		par.For(m, 2048, func(lo, hi int) { unzipSoARange(re, im, x, lo, hi) })
	} else {
		unzipSoARange(re, im, x, 0, m)
	}
	scratch.PutFloats(re)
	scratch.PutFloats(im)
}

// repackSoARange rebuilds conj(Z) for pairs (k, m-k), k in [lo, hi), in
// place in the spectrum planes, with the inverse normalization folded into
// scale: Z[k] = E[k] + i*O[k], Z[m-k] = conj(E[k] - i*O[k]), with
// E[k] = (X[k] + conj(X[m-k]))/2m and O[k] = conj(w^k)(X[k] - conj(X[m-k]))/2m.
func (p *RPlan) repackSoARange(sr, si []float64, scale float64, lo, hi int) {
	m := p.half
	rtwRe, rtwIm := p.rtwRe, p.rtwIm
	_, _ = sr[m-lo], si[m-lo]
	_, _ = rtwRe[hi-1], rtwIm[hi-1]
	for k := lo; k < hi; k++ {
		xkr, xki := sr[k], si[k]
		xmr, xmi := sr[m-k], si[m-k]
		ekr, eki := (xkr+xmr)*scale, (xki-xmi)*scale
		dr, di := (xkr-xmr)*scale, (xki+xmi)*scale
		wr, wi := rtwRe[k], rtwIm[k]
		okr := wr*dr + wi*di
		oki := wr*di - wi*dr
		sr[k], si[k] = ekr-oki, -(eki + okr)
		sr[m-k], si[m-k] = ekr+oki, eki-okr
	}
}

// specGatherQuads gathers four already-conjugated packed spectrum samples
// per quad in bit-reversed order and applies the trivial first butterfly.
func specGatherQuads(sr, si []float64, rev []int32, re, im []float64, qLo, qHi int) {
	for q := qLo; q < qHi; q++ {
		i := 4 * q
		r0, r1, r2, r3 := rev[i], rev[i+1], rev[i+2], rev[i+3]
		quadStore(re, im, i,
			sr[r0], si[r0], sr[r1], si[r1],
			sr[r2], si[r2], sr[r3], si[r3])
	}
}

// unzipSoARange writes packed time samples j in [lo, hi) to the real output:
// the conjugation of the inverse identity negates the imaginary plane.
func unzipSoARange(re, im, x []float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		x[2*j] = re[j]
		x[2*j+1] = -im[j]
	}
}

// smallForward computes the half spectrum of n <= 4 real samples in closed
// form: every twiddle is 1, -1 or -i, so each bin is a few adds.
func smallForward(x, sr, si []float64) {
	switch len(x) {
	case 1:
		sr[0], si[0] = x[0], 0
	case 2:
		sr[0], si[0] = x[0]+x[1], 0
		sr[1], si[1] = x[0]-x[1], 0
	case 4:
		e, o := x[0]+x[2], x[1]+x[3]
		sr[0], si[0] = e+o, 0
		sr[1], si[1] = x[0]-x[2], x[3]-x[1]
		sr[2], si[2] = e-o, 0
	}
}

// smallInverse is smallForward's inverse, including the 1/n scaling. As in
// the kernel path, the imaginary parts of the DC and Nyquist bins are
// ignored (they are zero for the spectrum of a real row).
func smallInverse(sr, si, x []float64) {
	switch len(x) {
	case 1:
		x[0] = sr[0]
	case 2:
		x[0], x[1] = (sr[0]+sr[1])*0.5, (sr[0]-sr[1])*0.5
	case 4:
		e, d := (sr[0]+sr[2])*0.25, (sr[0]-sr[2])*0.25
		a, b := sr[1]*0.5, si[1]*0.5
		x[0], x[1], x[2], x[3] = e+a, d-b, e-a, d+b
	}
}
