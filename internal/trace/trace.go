// Package trace reproduces the cache-miss (Figure 7) and energy (Figures 6
// and 10) experiments the paper runs with PAPI and RAPL, in software: it
// routes array traffic through a cachesim.Hierarchy and accrues approximate
// flop counts for the energy model.
//
// Every column replays the recorded schedule of code that ships. The fast
// column (Replay): fbstencil.SolveGreenLeftOneSided reports its obstacle
// fills, copies, direct steps and FFT evolutions together with the buffers
// they read and write, and each is replayed on simulated memory that follows
// those buffers, with a traced FFT. Its direct steps are in-place sweeps,
// each after the EventFill of its obstacle row. The direct baselines
// (ReplaySweep): internal/sweep's Naive, Tiled and Recursive report their
// buffers, copies and row updates in the same event vocabulary, and the
// same replayer follows them. There is no traced copy of any loop here.
//
// Everything here runs serially, the recorded solve included: hardware-
// counter runs in the paper measure total traffic, which is
// schedule-independent for these algorithms, and a serial replay keeps the
// simulator deterministic.
package trace

import (
	"math"
	"math/bits"

	"github.com/nlstencil/amop/internal/cachesim"
	"github.com/nlstencil/amop/internal/fft"
)

// Approximate flop weights for the energy model. These are coarse event
// weights, not an instruction-level model: transcendental calls are scored
// as a fixed multiple of a multiply-add.
const (
	flopsPerCell      = 4  // multiply-add pairs + compare in a stencil cell
	flopsPerExp       = 16 // exp/log in a green/exercise evaluation
	flopsPerButterfly = 10
)

// ---------------------------------------------------------------------------
// Traced FFT and multi-step linear evolution.
// ---------------------------------------------------------------------------

// tracedPlan is a model of the FFT's memory traffic, not a copy of the
// shipped kernel: a complex radix-2 transform of size N with its twiddle and
// bit-reversal tables resident in simulated memory. The solver instead runs
// a real transform through a size-N/2 split-plane radix-4 ladder
// (internal/fft) and reads its multiplier from the spectrum cache, where
// evolveCone below evaluates the symbol per frequency.
type tracedPlan struct {
	n       int
	rev     []int32
	tw      []complex128
	revBase uint64
	twBase  uint64
}

type planCache map[int]*tracedPlan

func (pc planCache) get(h *cachesim.Hierarchy, n int) *tracedPlan {
	if p, ok := pc[n]; ok {
		return p
	}
	p := &tracedPlan{n: n}
	p.rev = make([]int32, n)
	shift := bits.UintSize - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		p.rev[i] = int32(bits.Reverse(uint(i)) >> shift)
	}
	p.tw = make([]complex128, n/2)
	for k := range p.tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.tw[k] = complex(c, s)
	}
	p.revBase = h.Alloc(4 * n)
	p.twBase = h.Alloc(16 * (n / 2))
	// Table construction writes once, as in the real plan cache.
	for i := 0; i < n; i++ {
		h.Access(p.revBase + 4*uint64(i))
	}
	for k := range p.tw {
		h.Access(p.twBase + 16*uint64(k))
	}
	pc[n] = p
	return p
}

func (p *tracedPlan) transform(h *cachesim.Hierarchy, a cachesim.C128, inverse bool) {
	n := p.n
	for i, r := range p.rev {
		h.Access(p.revBase + 4*uint64(i))
		if int32(i) < r {
			x, y := a.Get(i), a.Get(int(r))
			a.Set(i, y)
			a.Set(int(r), x)
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for b := 0; b < n; b += size {
			for j := 0; j < half; j++ {
				h.Access(p.twBase + 16*uint64(j*step))
				w := p.tw[j*step]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				lo, hi := b+j, b+j+half
				x, y := a.Get(lo), a.Get(hi)
				t := y * w
				a.Set(hi, x-t)
				a.Set(lo, x+t)
				h.AddFlops(flopsPerButterfly)
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := 0; i < n; i++ {
			a.Set(i, a.Get(i)*inv)
		}
		h.AddFlops(uint64(2 * n))
	}
}

// evolveCone mirrors linstencil.EvolveConeTo on traced memory: k steps of
// the stencil with offsets 0..len(w)-1 applied to the n cells load reads in
// order. It returns the exit pass's read of in-cone output i (of the first
// n-k*(len(w)-1) positions), which the caller pairs with the store into
// its destination.
func (r *replayer) evolveCone(n int, load func(i int) float64, w []float64, k int) func(i int) {
	span := len(w) - 1
	outN := n - k*span
	if outN <= 0 {
		panic("trace: cone empty")
	}
	if n*k*(span+1) <= 1<<11 {
		// Mirror the production naive cutoff so traffic patterns match.
		buf := r.h.NewF64(n)
		for i := 0; i < n; i++ {
			buf.Set(i, load(i))
		}
		m := n
		for step := 0; step < k; step++ {
			m -= span
			for j := 0; j < m; j++ {
				var acc float64
				for i, wi := range w {
					acc += wi * buf.Get(j+i)
				}
				buf.Set(j, acc)
				r.h.AddFlops(flopsPerCell)
			}
		}
		return func(i int) { buf.Get(i) }
	}

	N := fft.NextPow2(n)
	p := r.plans.get(r.h, N)
	a := r.h.NewC128(N)
	for i := 0; i < n; i++ {
		a.Set(i, complex(load(i), 0))
	}
	for i := n; i < N; i++ {
		a.Set(i, 0)
	}
	p.transform(r.h, a, false)
	logK := uint64(bits.Len(uint(k)))
	for f := 0; f < N; f++ {
		sin, cos := math.Sincos(-2 * math.Pi * float64(f) / float64(N))
		omega := complex(cos, sin)
		sym := complex(w[len(w)-1], 0)
		for i := len(w) - 2; i >= 0; i-- {
			sym = sym*omega + complex(w[i], 0)
		}
		kp := fft.Pow(sym, k)
		a.Set(f, a.Get(f)*complex(real(kp), -imag(kp)))
		r.h.AddFlops(flopsPerExp + 8*logK + 8)
	}
	p.transform(r.h, a, true)
	return func(i int) { a.Get(i) }
}
