package fft

// Natural-order real-input transforms. ForwardSoA and InverseSoA carry the
// half spectrum as split re/im planes in natural order, for callers that
// read or write individual bins. Each is one of Convolve's cores plus one
// reorder pass over the same mirrored quad pairs as the spectral pass:
//
//   - ForwardSoA: the pack and DIF ladder, then a pass that gathers each
//     pair of mirrored quads, applies the DIF's trivial last stage and
//     unpacks their bins into natural order;
//   - InverseSoA: a pass that repacks the bins of each pair of mirrored
//     quads from natural order, applies the DIT's trivial first stage and
//     scatters the quads, then the DIT ladder and the exit pass.
//
// Layout: sr/si hold the half spectrum, length n/2+1, with the conjugate
// symmetry X[n-k] = conj(X[k]) of real input implied.

import (
	"fmt"
	"math/bits"

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

	buf := scratch.Floats(2 * m)
	re, im := buf[:m:m], buf[m:2*m]
	parallel := m >= ParThreshold && par.Workers() > 1
	pack(x, re, im, parallel)
	p.inner.difStages(re, im)

	// Positions 0..3 hold Z[0], Z[m/2], Z[m/4] and Z[3m/4]: the DC and
	// Nyquist bins come from Z[0], the self-paired bin is conj(Z[m/2]).
	z0r, z0i, z1r, z1i, z2r, z2i, z3r, z3i := quadDIF(re[0], im[0], re[1], im[1], re[2], im[2], re[3], im[3])
	sr[0], si[0] = z0r+z0i, 0
	sr[m], si[m] = z0r-z0i, 0
	sr[m/2], si[m/2] = z1r, -z1i
	p.unpackStore(sr, si, m/4, z2r, z2i, z3r, z3i)
	if m >= 8 {
		z4r, z4i, z5r, z5i, z6r, z6i, z7r, z7i := quadDIF(re[4], im[4], re[5], im[5], re[6], im[6], re[7], im[7])
		p.unpackStore(sr, si, m/8, z4r, z4i, z7r, z7i)
		p.unpackStore(sr, si, 5*m/8, z5r, z5i, z6r, z6i)
	}
	if parallel {
		par.For(m/8-1, 256, func(lo, hi int) { p.unpackBins(re, im, sr, si, 1+lo, 1+hi) })
	} else {
		p.unpackBins(re, im, sr, si, 1, m/8)
	}
	scratch.PutFloats(buf)
}

// unpackStore writes the bins k and m-k of the half spectrum from the
// packed values a = Z[k] and b = Z[m-k].
func (p *RPlan) unpackStore(sr, si []float64, k int, ar, ai, br, bi float64) {
	xr, xi, yr, yi := unpackPair(ar, ai, br, bi, p.rtwRe[k], p.rtwIm[k])
	sr[k], si[k] = 0.5*xr, 0.5*xi
	sr[p.half-k], si[p.half-k] = 0.5*yr, -0.5*yi
}

// unpackBins is ForwardSoA's reorder pass for the bins k in [kLo, kHi),
// 0 < k < m/8: the DIF's trivial last stage on the quad holding bin k and
// on its mirror quad, then their eight bins unpacked. Each pair of mirrored
// quads holds exactly one bin below m/8, so the pass reads the quads in
// bit-reversed order and writes the half spectrum in eight sequential
// streams.
func (p *RPlan) unpackBins(re, im, sr, si []float64, kLo, kHi int) {
	m := p.half
	off := [4]int{0, m / 2, m / 4, 3 * m / 4}
	for k := kLo; k < kHi; k++ {
		q, qm := p.binQuads(k)
		a, b := 4*q, 4*qm
		var za, zb [8]float64
		za[0], za[1], za[2], za[3], za[4], za[5], za[6], za[7] = quadDIF(re[a], im[a], re[a+1], im[a+1], re[a+2], im[a+2], re[a+3], im[a+3])
		zb[0], zb[1], zb[2], zb[3], zb[4], zb[5], zb[6], zb[7] = quadDIF(re[b], im[b], re[b+1], im[b+1], re[b+2], im[b+2], re[b+3], im[b+3])
		for r := 0; r < 4; r++ {
			p.unpackStore(sr, si, k+off[r], za[2*r], za[2*r+1], zb[6-2*r], zb[7-2*r])
		}
	}
}

// binQuads returns the quad q whose slot 0 holds the bin k, 0 < k < m/4,
// in the spectral order, and its mirror quad qm. The bins of q are
// k + {0, m/2, m/4, 3m/4} by slot; slot 3-r of qm holds m minus the bin of
// slot r of q.
func (p *RPlan) binQuads(k int) (q, qm int) {
	q = p.Bin(k) / 4
	top := 1 << (bits.Len(uint(q)) - 1)
	return q, 3*top - 1 - q
}

// InverseSoA recovers the real signal from its half spectrum held as split
// planes, including the 1/n scaling, so that InverseSoA(ForwardSoA(x)) == x
// up to rounding. len(sr) and len(si) must be n/2 + 1 and len(x) must be n.
// The imaginary parts of the DC and Nyquist bins are ignored (they are zero
// for the spectrum of a real row); sr and si are only read.
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

	buf := scratch.Floats(2 * m)
	re, im := buf[:m:m], buf[m:2*m]
	// Positions 0..3 take conj(Z') for Z'[0] (from the DC and Nyquist
	// bins), Z'[m/2] (self-paired: conj(Z'[m/2]) = X[m/2]/m) and the pair
	// m/4, 3m/4; positions 4..7 the pairs (m/8, 7m/8) and (5m/8, 3m/8).
	s := 0.5 / float64(m)
	c2r, c2i, c3r, c3i := p.repackLoad(sr, si, m/4, s)
	quadStore(re, im, 0, (sr[0]+sr[m])*s, (sr[m]-sr[0])*s, sr[m/2]*(2*s), si[m/2]*(2*s), c2r, c2i, c3r, c3i)
	if m >= 8 {
		c4r, c4i, c7r, c7i := p.repackLoad(sr, si, m/8, s)
		c5r, c5i, c6r, c6i := p.repackLoad(sr, si, 5*m/8, s)
		quadStore(re, im, 4, c4r, c4i, c5r, c5i, c6r, c6i, c7r, c7i)
	}
	parallel := m >= ParThreshold && par.Workers() > 1
	if parallel {
		par.For(m/8-1, 256, func(lo, hi int) { p.repackBins(sr, si, re, im, 1+lo, 1+hi) })
	} else {
		p.repackBins(sr, si, re, im, 1, m/8)
	}
	p.inner.ditStages(re, im)
	unzip(re, im, x, parallel)
	scratch.PutFloats(buf)
}

// repackLoad reads the bins k and m-k of the half spectrum and returns
// conj(Z'[k]) and conj(Z'[m-k]) of the packed spectrum, scaled by s.
func (p *RPlan) repackLoad(sr, si []float64, k int, s float64) (ckr, cki, cmr, cmi float64) {
	mk := p.half - k
	return repackPair(sr[k], si[k], sr[mk], -si[mk], p.rtwRe[k], p.rtwIm[k], s)
}

// repackBins is InverseSoA's reorder pass for the bins k in [kLo, kHi),
// 0 < k < m/8, the transpose of unpackBins: the eight bins of a pair of
// mirrored quads read in sequential streams and repacked, then the DIT's
// trivial first stage on both quads.
func (p *RPlan) repackBins(sr, si, re, im []float64, kLo, kHi int) {
	m := p.half
	s := 0.5 / float64(m)
	off := [4]int{0, m / 2, m / 4, 3 * m / 4}
	for k := kLo; k < kHi; k++ {
		q, qm := p.binQuads(k)
		var ca, cb [8]float64
		for r := 0; r < 4; r++ {
			ca[2*r], ca[2*r+1], cb[6-2*r], cb[7-2*r] = p.repackLoad(sr, si, k+off[r], s)
		}
		quadStore(re, im, 4*q, ca[0], ca[1], ca[2], ca[3], ca[4], ca[5], ca[6], ca[7])
		quadStore(re, im, 4*qm, cb[0], cb[1], cb[2], cb[3], cb[4], cb[5], cb[6], cb[7])
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
