package fft

// The convolution runs in the transform's own order. A pointwise multiply
// does not care where each bin sits, so Convolve never puts the spectrum in
// natural order:
//
//   - the entry pass packs the caller's real row (even samples real, odd
//     samples imaginary, zeros past its end) into split planes in natural
//     order, and the DIF ladder (difStages) leaves the packed spectrum Z
//     in bit-reversed order;
//   - one in-place spectral pass (spectralHead, spectralGroups) does the
//     DIF's trivial last stage, the real-input unpack, the multiply, the
//     repack with the inverse's scale and conjugation, and the DIT's
//     trivial first stage;
//   - the DIT ladder (ditStages) takes the bit-reversed spectrum back to
//     natural order, and the exit pass writes only the samples the caller
//     keeps.
//
// The unpack pairs Z[k] with Z[m-k] (m = n/2 packed samples). In
// bit-reversed order the two sit at mirrored positions of one octave:
// position p in [2^j, 2^(j+1)) holds k = rev(p), and m-k sits at
// 3*2^j-1-p (negating k inverts the bits below its lowest set bit). The
// mirror maps the quad 4q..4q+3 onto the quad 3*2^(j-2)-1-q with the slots
// reversed, so the pass walks quad pairs and the trivial radix-4 stages on
// either side stay within the quads it holds. Positions 0 and 1 hold the
// DC/Nyquist pair Z[0] and the self-paired bin Z[m/2].

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/scratch"
)

// Convolve filters the real row x, zero-padded to the plan size n, by the
// half-spectrum multiplier M and writes the first len(out) samples of the
// result: out[t] = (1/n) sum_f X[f] M[f] exp(2*pi*i*f*t/n) over the full
// spectrum, with X the DFT of the padded row and M extended by conjugate
// symmetry. mult holds M as split planes in spectral order: with
// h = n/2+1, mult[pos] + i*mult[h+pos] is the multiplier of bin Bin(pos),
// so len(mult) must be 2h. len(x) and len(out) must be at most n. The
// imaginary parts of the DC and Nyquist multipliers are ignored. One call
// counts as a forward and an inverse transform.
func (p *RPlan) Convolve(x, mult, out []float64) {
	if len(x) > p.n || len(out) > p.n || len(mult) != 2*(p.half+1) {
		panic(fmt.Sprintf("fft: RPlan size %d: got input %d, multiplier %d, output %d",
			p.n, len(x), len(mult), len(out)))
	}
	addTransformed(2 * 8 * p.n)
	m := p.half
	if m < 4 {
		convolveSmall(x, mult, out, p.n)
		return
	}
	soaTransforms.Add(2)

	buf := scratch.Floats(2 * m)
	re, im := buf[:m:m], buf[m:2*m]
	parallel := m >= ParThreshold && par.Workers() > 1
	pack(x, re, im, parallel)
	p.inner.difStages(re, im)
	p.spectralHead(re, im, mult)
	if groups := (m/8 + 3) / 4; parallel {
		par.For(groups, 64, func(lo, hi int) { p.spectralGroups(re, im, mult, lo, hi) })
	} else {
		p.spectralGroups(re, im, mult, 0, groups)
	}
	p.inner.ditStages(re, im)
	unzip(re, im, out, parallel)
	scratch.PutFloats(buf)
}

// pack is the entry pass: the real row x, zero-padded to twice the plane
// length, packed into the planes as z[j] = x[2j] + i*x[2j+1].
func pack(x, re, im []float64, parallel bool) {
	if parallel {
		par.For(len(re), 2048, func(lo, hi int) { packRange(x, re, im, lo, hi) })
	} else {
		packRange(x, re, im, 0, len(re))
	}
}

// unzip is the exit pass: the first len(out) samples of the real row
// whose packed, conjugated samples the planes hold.
func unzip(re, im, out []float64, parallel bool) {
	half := (len(out) + 1) / 2
	if parallel {
		par.For(half, 2048, func(lo, hi int) { unzipRange(re, im, out, lo, hi) })
	} else {
		unzipRange(re, im, out, 0, half)
	}
}

// packRange packs samples j in [lo, hi) of the row x into the planes,
// with the samples past len(x) read as zeros.
func packRange(x, re, im []float64, lo, hi int) {
	j := max(lo, min(hi, len(x)/2))
	packSamples(x, re, im, lo, j)
	if j < hi && 2*j < len(x) {
		re[j], im[j] = x[2*j], 0
		j++
	}
	if j < hi {
		clear(re[j:hi])
		clear(im[j:hi])
	}
}

// unzipRange writes packed time samples j in [lo, hi) to the real row out,
// stopping at its end: the conjugation of the inverse identity negates the
// imaginary plane.
func unzipRange(re, im, out []float64, lo, hi int) {
	j := max(lo, min(hi, len(out)/2))
	unzipSamples(re, im, out, lo, j)
	if j < hi && 2*j < len(out) {
		out[2*j] = re[j]
	}
}

// pairQuads returns the u-th pair of mirrored quads, u >= 1: quad q and
// quad qm hold the bins k and m-k of one octave of the bit-reversed order,
// slot r of q pairing with slot 3-r of qm.
func pairQuads(u int) (q, qm int) {
	top := 1 << (bits.Len(uint(u)) - 1)
	q = u + top
	return q, 6*top - 1 - q
}

// quadDIF applies the DIF ladder's trivial last radix-4 butterfly, the
// transpose of quadStore's, to one quad and returns its four outputs.
func quadDIF(x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i float64) (z0r, z0i, z1r, z1i, z2r, z2i, z3r, z3i float64) {
	s02r, s02i := x0r+x2r, x0i+x2i
	d02r, d02i := x0r-x2r, x0i-x2i
	s13r, s13i := x1r+x3r, x1i+x3i
	// u3 = -i * (x1 - x3)
	u3r, u3i := x1i-x3i, x3r-x1r
	return s02r + s13r, s02i + s13i, s02r - s13r, s02i - s13i,
		d02r + u3r, d02i + u3i, d02r - u3r, d02i - u3i
}

// unpackPair recombines the packed spectrum values a = Z[k] and b = Z[m-k]
// into twice the real row's spectrum: x = 2X[k] and y = 2conj(X[m-k]), for
// the twiddle w = exp(-2*pi*i*k/n). With E = (Z[k] + conj(Z[m-k]))/2 and
// O = -i(Z[k] - conj(Z[m-k]))/2 the even- and odd-sample spectra,
// X[k] = E + w*O and, since w^(m-k) = -conj(w), conj(X[m-k]) = E - w*O.
func unpackPair(ar, ai, br, bi, wr, wi float64) (xr, xi, yr, yi float64) {
	er, ei := ar+br, ai-bi
	dr, di := ar-br, ai+bi // 2O = (di, -dr)
	tr := wr*di + wi*dr
	ti := wi*di - wr*dr
	return er + tr, ei + ti, er - tr, ei - ti
}

// repackPair inverts unpackPair for the inverse transform: from y = c*Y[k]
// and q = c*conj(Y[m-k]) it returns conj(Z[k]) and conj(Z[m-k]) of the
// packed spectrum Z whose inverse is the real row, scaled by s = 1/(2cm)
// for the inverse's 1/m. The conjugations are the entry half of the
// identity IDFT(Z) = conj(DFT(conj(Z)))/m; the exit pass does the other.
func repackPair(yr, yi, qr, qi, wr, wi, s float64) (ckr, cki, cmr, cmi float64) {
	er, ei := (yr+qr)*s, (yi+qi)*s
	dr, di := (yr-qr)*s, (yi-qi)*s
	or := wr*dr + wi*di // O = conj(w) * D
	oi := wr*di - wi*dr
	return er - oi, -(ei + or), er + oi, ei - or
}

// spectralPair is the spectral pass on one bin pair: unpack, multiply by
// M[k] = (kr, ki) and M[m-k] = (nr, ni), repack. a and b are Z[k] and
// Z[m-k].
func spectralPair(ar, ai, br, bi, wr, wi, kr, ki, nr, ni, s float64) (ckr, cki, cmr, cmi float64) {
	xr, xi, yr, yi := unpackPair(ar, ai, br, bi, wr, wi)
	// y*conj(M[m-k]) = 2conj(Y[m-k])
	return repackPair(xr*kr-xi*ki, xr*ki+xi*kr, yr*nr+yi*ni, yi*nr-yr*ni, wr, wi, s)
}

// spectralHead runs the spectral pass on the first two quads, whose bins do
// not follow the mirrored-quad pattern: positions 0 and 1 hold Z[0] (the
// DC and Nyquist bins of the real row) and Z[m/2] (self-paired), positions
// 2 and 3 the pair m/4, 3m/4, and positions 4..7 the pairs (m/8, 7m/8) and
// (5m/8, 3m/8) within one quad.
func (p *RPlan) spectralHead(re, im, mult []float64) {
	m := p.half
	mr, mi := mult[:m+1], mult[m+1:]
	s := 0.25 / float64(m)
	z0r, z0i, z1r, z1i, z2r, z2i, z3r, z3i := quadDIF(re[0], im[0], re[1], im[1], re[2], im[2], re[3], im[3])
	// DC and Nyquist: X[0] = Re Z[0] + Im Z[0], X[m] = Re Z[0] - Im Z[0].
	y0 := (z0r + z0i) * mr[0]
	ym := (z0r - z0i) * mr[m]
	c0r, c0i := (y0+ym)*(2*s), (ym-y0)*(2*s)
	// Self-paired: X[m/2] = conj(Z[m/2]), and conj(Z'[m/2]) = Y[m/2]/m.
	c1r := (z1r*mr[1] + z1i*mi[1]) * (4 * s)
	c1i := (z1r*mi[1] - z1i*mr[1]) * (4 * s)
	k := m / 4
	c2r, c2i, c3r, c3i := spectralPair(z2r, z2i, z3r, z3i, p.rtwRe[k], p.rtwIm[k], mr[2], mi[2], mr[3], mi[3], s)
	quadStore(re, im, 0, c0r, c0i, c1r, c1i, c2r, c2i, c3r, c3i)
	if m < 8 {
		return
	}
	z4r, z4i, z5r, z5i, z6r, z6i, z7r, z7i := quadDIF(re[4], im[4], re[5], im[5], re[6], im[6], re[7], im[7])
	k4, k5 := m/8, 5*m/8
	c4r, c4i, c7r, c7i := spectralPair(z4r, z4i, z7r, z7i, p.rtwRe[k4], p.rtwIm[k4], mr[4], mi[4], mr[7], mi[7], s)
	c5r, c5i, c6r, c6i := spectralPair(z5r, z5i, z6r, z6i, p.rtwRe[k5], p.rtwIm[k5], mr[5], mi[5], mr[6], mi[6], s)
	quadStore(re, im, 4, c4r, c4i, c5r, c5i, c6r, c6i, c7r, c7i)
}

// sqrtHalf is cos(pi/4).
const sqrtHalf = math.Sqrt2 / 2

// slotTwiddles returns the twiddles of the four slots of a quad whose slot
// 0 has twiddle t: t, -i*t, t*exp(-i*pi/4) and t*exp(-3i*pi/4).
func slotTwiddles(tr, ti float64) (w0r, w0i, w1r, w1i, w2r, w2i, w3r, w3i float64) {
	sum, dif := (tr+ti)*sqrtHalf, (ti-tr)*sqrtHalf
	return tr, ti, ti, -tr, sum, dif, dif, -sum
}

// spectralGroupsGeneric runs the spectral pass on the mirrored quad pairs
// of groups g in [gLo, gHi), u = 4g..4g+3 (u >= 1 and u < m/8): each quad
// pair is read once and written once, in place.
func (p *RPlan) spectralGroupsGeneric(re, im, mult []float64, gLo, gHi int) {
	m := p.half
	mr, mi := mult[:m+1], mult[m+1:]
	s := 0.25 / float64(m)
	for u := max(4*gLo, 1); u < min(4*gHi, m/8); u++ {
		q, qm := pairQuads(u)
		a, b := 4*q, 4*qm
		ar, ai, amr, ami := re[a:a+4:a+4], im[a:a+4:a+4], mr[a:a+4:a+4], mi[a:a+4:a+4]
		br, bi, bmr, bmi := re[b:b+4:b+4], im[b:b+4:b+4], mr[b:b+4:b+4], mi[b:b+4:b+4]
		w0r, w0i, w1r, w1i, w2r, w2i, w3r, w3i := slotTwiddles(p.pairRe[u], p.pairIm[u])
		a0r, a0i, a1r, a1i, a2r, a2i, a3r, a3i := quadDIF(ar[0], ai[0], ar[1], ai[1], ar[2], ai[2], ar[3], ai[3])
		b0r, b0i, b1r, b1i, b2r, b2i, b3r, b3i := quadDIF(br[0], bi[0], br[1], bi[1], br[2], bi[2], br[3], bi[3])
		a0r, a0i, b3r, b3i = spectralPair(a0r, a0i, b3r, b3i, w0r, w0i, amr[0], ami[0], bmr[3], bmi[3], s)
		a1r, a1i, b2r, b2i = spectralPair(a1r, a1i, b2r, b2i, w1r, w1i, amr[1], ami[1], bmr[2], bmi[2], s)
		a2r, a2i, b1r, b1i = spectralPair(a2r, a2i, b1r, b1i, w2r, w2i, amr[2], ami[2], bmr[1], bmi[1], s)
		a3r, a3i, b0r, b0i = spectralPair(a3r, a3i, b0r, b0i, w3r, w3i, amr[3], ami[3], bmr[0], bmi[0], s)
		quadStore(re, im, a, a0r, a0i, a1r, a1i, a2r, a2i, a3r, a3i)
		quadStore(re, im, b, b0r, b0i, b1r, b1i, b2r, b2i, b3r, b3i)
	}
}

// convolveSmall is Convolve for n <= 4 in closed form, where the spectral
// order is the natural one.
func convolveSmall(x, mult, out []float64, n int) {
	var row [4]float64
	var sr, si [3]float64
	h := n/2 + 1
	copy(row[:], x)
	smallForward(row[:n], sr[:h], si[:h])
	for f := 0; f < h; f++ {
		r, i := sr[f], si[f]
		mr, mi := mult[f], mult[h+f]
		sr[f], si[f] = r*mr-i*mi, r*mi+i*mr
	}
	smallInverse(sr[:h], si[:h], row[:n])
	copy(out, row[:n])
}
