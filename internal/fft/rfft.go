package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"github.com/nlstencil/amop/internal/obs"
)

// The stencil machinery transforms purely real rows; a full complex FFT of
// them would do twice the butterflies and move twice the memory actually
// required. RPlan is the real-input transform, built on the classic
// N/2-complex packing trick. The n real samples are viewed as n/2 complex
// samples (even samples in the real lane, odd samples in the imaginary
// lane), transformed with the size-n/2 split-plane ladder — reusing its
// twiddle tables and stage-level parallelism — and then split into the
// half spectrum X[0..n/2] via the conjugate symmetry X[n-k] = conj(X[k])
// of real input. The convolution, which keeps the spectrum in the ladder's
// bit-reversed order, is in convolve.go; the natural-order transforms are
// in rfft_soa.go.

// RPlan holds the precomputed tables for real-input transforms of one fixed
// size. An RPlan is safe for concurrent use: all fields are read-only after
// creation.
type RPlan struct {
	n     int
	half  int   // n / 2
	inner *plan // complex plan of size n/2 (nil when n == 1)
	// rtwRe/rtwIm hold exp(-2*pi*i*k/n) for k in [0, n/2) as split planes:
	// the odd/even recombination twiddles, which live on the size-n circle
	// and therefore interleave the inner plan's size-n/2 table.
	rtwRe, rtwIm []float64
	// pairRe/pairIm hold, for the u-th mirrored quad pair (see pairQuads),
	// the twiddle w^k of the bin in slot 0 of its first quad q. The bins of
	// a quad are rev(q) + {0, 2, 1, 3}*m/4, so slot r's twiddle is this one
	// times {1, -i, exp(-i*pi/4), exp(-3i*pi/4)} (slotTwiddles). Entry 0 is
	// unused: the first two quads read rtwRe/rtwIm directly.
	pairRe, pairIm []float64
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
	p.inner = planFor(n / 2)
	p.rtwRe = make([]float64, p.half)
	p.rtwIm = make([]float64, p.half)
	for k := range p.rtwRe {
		p.rtwIm[k], p.rtwRe[k] = math.Sincos(-2 * math.Pi * float64(k) / float64(n))
	}
	if m := p.half; m >= 16 {
		p.pairRe = make([]float64, m/8)
		p.pairIm = make([]float64, m/8)
		for u := 1; u < m/8; u++ {
			q, _ := pairQuads(u)
			k := p.Bin(4 * q)
			p.pairRe[u], p.pairIm[u] = p.rtwRe[k], p.rtwIm[k]
		}
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
		// Also covers the degenerate n == 1 plan, whose tables are empty
		// and whose only frequency is the DC bin.
		return complex(1, 0)
	}
	if k == p.half {
		return complex(-1, 0)
	}
	return complex(p.rtwRe[k], p.rtwIm[k])
}

// Bin returns the frequency whose spectrum value the convolution's
// spectral order holds at position pos in [0, n/2]: the DIF forward leaves
// the packed spectrum Z in bit-reversed order, so position pos holds
// Z[rev(pos)], with position 0 carrying the DC and Nyquist bins (n/2 is
// stored last, at position n/2) and position 1 the self-paired bin n/4.
// A multiplier passed to Convolve is laid out in this order.
func (p *RPlan) Bin(pos int) int {
	m := p.half
	if pos == 0 || pos == m {
		return pos
	}
	return int(bits.Reverse(uint(pos)) >> (bits.UintSize - uint(bits.TrailingZeros(uint(m)))))
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

// transformedBytes counts the real input bytes moved through every RPlan
// transform (8 per real sample, one count per direction). The harness reads
// deltas around a solve to report transform traffic.
var transformedBytes = obs.NewCounter("amop_fft_bytes_transformed_total",
	"real sample bytes pushed through FFT transforms, per direction")

func addTransformed(n int) { transformedBytes.Add(int64(n)) }

// TransformedBytes returns the cumulative transform traffic in bytes.
func TransformedBytes() int64 { return transformedBytes.Load() }
