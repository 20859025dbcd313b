package fft

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/nlstencil/amop/internal/par"
)

// The stencil machinery transforms purely real rows; a full complex128 FFT
// of them would do twice the butterflies and move twice the memory actually
// required. RPlan is the real-input transform: a forward
// real-to-half-spectrum transform and its inverse, built on the classic
// N/2-complex packing trick. The n real samples are viewed as n/2 complex
// samples (even samples in the real lane, odd samples in the imaginary
// lane), transformed with the size-n/2 complex Plan — reusing its twiddle
// tables, bit-reversal staging, and stage-level parallelism — and then
// unpacked into the half spectrum X[0..n/2] via the conjugate symmetry
// X[n-k] = conj(X[k]) of real input. The complex-spectrum API here runs in
// place in the caller's buffers; the plane-native API the stencil evolution
// uses is in rfft_soa.go.

// RPlan holds the precomputed tables for real-input transforms of one fixed
// size. An RPlan is safe for concurrent use: all fields are read-only after
// creation.
type RPlan struct {
	n     int
	half  int   // n / 2
	inner *Plan // complex plan of size n/2 (nil when n == 1)
	// rtw[k] = exp(-2*pi*i*k/n) for k in [0, n/2): the odd/even recombination
	// twiddles, which live on the size-n circle and therefore interleave the
	// inner plan's size-n/2 table.
	rtw []complex128
	// rtwRe/rtwIm are rtw split into planes for the SoA pack/unpack loops
	// (rfft_soa.go), which stay in float64 lanes end to end.
	rtwRe, rtwIm []float64
}

// NewRPlan creates a real-input plan for transforms of size n. n must be a
// power of two and at least 1.
func NewRPlan(n int) *RPlan {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: size %d is not a positive power of two", n))
	}
	p := &RPlan{n: n, half: n / 2}
	if n == 1 {
		return p
	}
	p.inner = PlanFor(n / 2)
	p.rtw = make([]complex128, p.half)
	p.rtwRe = make([]float64, p.half)
	p.rtwIm = make([]float64, p.half)
	for k := range p.rtw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.rtw[k] = complex(c, s)
		p.rtwRe[k] = c
		p.rtwIm[k] = s
	}
	return p
}

// Size returns the transform size of the plan.
func (p *RPlan) Size() int { return p.n }

// HalfLen returns the half-spectrum length n/2 + 1.
func (p *RPlan) HalfLen() int { return p.half + 1 }

// Twiddle returns exp(-2*pi*i*k/n) for k in [0, n/2], read from the plan's
// precomputed table. Symbol evaluation at the half-spectrum frequencies uses
// this instead of per-frequency Sincos.
func (p *RPlan) Twiddle(k int) complex128 {
	if k == 0 {
		// Also covers the degenerate n == 1 plan, whose rtw table is empty
		// and whose only frequency is the DC bin.
		return complex(1, 0)
	}
	if k == p.half {
		return complex(-1, 0)
	}
	return p.rtw[k]
}

var rplanCache sync.Map // int -> *RPlan

// RPlanFor returns a cached real-input plan of size n, creating it on first
// use.
func RPlanFor(n int) *RPlan {
	if v, ok := rplanCache.Load(n); ok {
		return v.(*RPlan)
	}
	p := NewRPlan(n)
	actual, _ := rplanCache.LoadOrStore(n, p)
	return actual.(*RPlan)
}

// Forward computes the half spectrum of the real input x:
// spec[k] = sum_j x[j] * exp(-2*pi*i*j*k/n) for k in [0, n/2]. The remaining
// frequencies are determined by conjugate symmetry and are not stored.
// len(x) must be n and len(spec) must be n/2 + 1. spec's prior contents are
// ignored.
func (p *RPlan) Forward(x []float64, spec []complex128) {
	if len(x) != p.n || len(spec) != p.half+1 {
		panic(fmt.Sprintf("fft: RPlan size %d: got input %d, spectrum %d", p.n, len(x), len(spec)))
	}
	addTransformed(8 * p.n)
	if p.n == 1 {
		spec[0] = complex(x[0], 0)
		return
	}
	m := p.half
	// Pack: z[j] = x[2j] + i*x[2j+1] in spec[:m], then transform in place.
	z := spec[:m]
	if m >= parThreshold() {
		p.packPar(x, z)
	} else {
		packRange(x, z, 0, m)
	}
	p.inner.transform(z, false)

	// Unpack in place: for each pair (k, m-k), split Z into the spectra of
	// the even and odd sample streams and recombine on the size-n circle.
	// k = 0 (and the Nyquist bin m) read only z[0]; k = m/2 is self-paired.
	z0 := z[0]
	if lo, hi := 1, (m+1)/2; hi > lo {
		if m >= parThreshold() {
			p.unpackPar(spec, lo, hi)
		} else {
			p.unpackRange(spec, lo, hi)
		}
	}
	if m >= 2 && m%2 == 0 {
		k := m / 2
		zk := z[k]
		ek := (zk + conj(zk)) * 0.5
		ok := mulNegI(zk-conj(zk)) * 0.5
		spec[k] = ek + p.rtw[k]*ok
	}
	re0, im0 := real(z0), imag(z0)
	spec[0] = complex(re0+im0, 0)
	spec[m] = complex(re0-im0, 0)
}

func packRange(x []float64, z []complex128, lo, hi int) {
	for j := lo; j < hi; j++ {
		z[j] = complex(x[2*j], x[2*j+1])
	}
}

// unpackRange recombines spectrum pairs (k, m-k) for k in [lo, hi).
func (p *RPlan) unpackRange(spec []complex128, lo, hi int) {
	m := p.half
	rtw := p.rtw
	_, _ = spec[m-lo], rtw[hi-1]
	for k := lo; k < hi; k++ {
		zk, zmk := spec[k], spec[m-k]
		ek := (zk + conj(zmk)) * 0.5      // E[k], even-sample spectrum
		ok := mulNegI(zk-conj(zmk)) * 0.5 // O[k], odd-sample spectrum
		t := rtw[k] * ok
		spec[k] = ek + t // X[k] = E[k] + w^k O[k]
		// X[m-k] = E[m-k] - conj(w^k) O[m-k] with E[m-k] = conj(E[k]) and
		// O[m-k] = conj(O[k]) (w^(m-k) = -conj(w^k)), which folds to one
		// conjugation of the already-computed product: conj(E[k] - w^k O[k]).
		spec[m-k] = conj(ek - t)
	}
}

// packPar and unpackPar live in their own functions so Forward's serial path
// carries no closures (escaping func literals box their captures per call).
func (p *RPlan) packPar(x []float64, z []complex128) {
	par.For(len(z), 4096, func(lo, hi int) { packRange(x, z, lo, hi) })
}

func (p *RPlan) unpackPar(spec []complex128, lo, hi int) {
	par.For(hi-lo, 2048, func(a, b int) { p.unpackRange(spec, lo+a, lo+b) })
}

// Inverse recovers the real signal from its half spectrum, including the 1/n
// scaling, so that Inverse(Forward(x)) == x up to rounding. len(spec) must be
// n/2 + 1 and len(x) must be n. spec is destroyed in the process.
func (p *RPlan) Inverse(spec []complex128, x []float64) {
	if len(x) != p.n || len(spec) != p.half+1 {
		panic(fmt.Sprintf("fft: RPlan size %d: got input %d, spectrum %d", p.n, len(x), len(spec)))
	}
	addTransformed(8 * p.n)
	if p.n == 1 {
		x[0] = real(spec[0])
		return
	}
	m := p.half
	// Repack in place: Z[k] = E[k] + i*O[k] with E[k] = (X[k]+conj(X[m-k]))/2
	// and O[k] = conj(w^k) * (X[k]-conj(X[m-k]))/2; then one inverse complex
	// transform of size m interleaves the even and odd output samples. The
	// inverse's 1/m normalization is folded into the repack scale, saving the
	// separate scaling sweep Plan.Inverse would perform.
	scale := complex(0.5/float64(m), 0)
	x0, xm := spec[0], spec[m]
	if lo, hi := 1, (m+1)/2; hi > lo {
		if m >= parThreshold() {
			p.repackPar(spec, scale, lo, hi)
		} else {
			p.repackRange(spec, scale, lo, hi)
		}
	}
	if m >= 2 && m%2 == 0 {
		k := m / 2
		xk := spec[k]
		ek := (xk + conj(xk)) * scale
		ok := conj(p.rtw[k]) * (xk - conj(xk)) * scale
		spec[k] = ek + mulI(ok)
	}
	e0 := (real(x0) + real(xm)) * 0.5 / float64(m)
	o0 := (real(x0) - real(xm)) * 0.5 / float64(m)
	spec[0] = complex(e0, o0)

	z := spec[:m]
	p.inner.transform(z, true)
	if m >= parThreshold() {
		unzipPar(z, x)
	} else {
		unzipRange(z, x, 0, m)
	}
}

// repackRange rebuilds the packed spectrum Z for pairs (k, m-k), k in
// [lo, hi), with the inverse's 1/m normalization folded into scale.
func (p *RPlan) repackRange(spec []complex128, scale complex128, lo, hi int) {
	m := p.half
	rtw := p.rtw
	_, _ = spec[m-lo], rtw[hi-1]
	for k := lo; k < hi; k++ {
		xk, xmk := spec[k], spec[m-k]
		ek := (xk + conj(xmk)) * scale
		ok := conj(rtw[k]) * (xk - conj(xmk)) * scale
		spec[k] = ek + mulI(ok)
		// Z[m-k] = conj(E[k]) + i*conj(O[k]) = conj(E[k] - i*O[k]).
		spec[m-k] = conj(ek + mulNegI(ok))
	}
}

func unzipRange(z []complex128, x []float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		x[2*j] = real(z[j])
		x[2*j+1] = imag(z[j])
	}
}

func (p *RPlan) repackPar(spec []complex128, scale complex128, lo, hi int) {
	par.For(hi-lo, 2048, func(a, b int) { p.repackRange(spec, scale, lo+a, lo+b) })
}

func unzipPar(z []complex128, x []float64) {
	par.For(len(z), 4096, func(lo, hi int) { unzipRange(z, x, lo, hi) })
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }

// mulI returns i*z without a complex multiply.
func mulI(z complex128) complex128 { return complex(-imag(z), real(z)) }

// mulNegI returns -i*z without a complex multiply.
func mulNegI(z complex128) complex128 { return complex(imag(z), -real(z)) }

// transformedBytes counts the input bytes moved through every Plan and RPlan
// transform (8 per real sample, 16 per complex sample, one count per
// direction). The harness reads deltas around a solve to report how much
// transform traffic the real-input path saves.
var transformedBytes atomic.Int64

func addTransformed(n int) { transformedBytes.Add(int64(n)) }

// TransformedBytes returns the cumulative transform traffic in bytes.
func TransformedBytes() int64 { return transformedBytes.Load() }
