// Package trace reproduces the cache-miss (Figure 7) and energy (Figures 6
// and 10) experiments the paper runs with PAPI and RAPL, in software: it
// routes array traffic through a cachesim.Hierarchy and accrues approximate
// flop counts for the energy model.
//
// Every column replays the recorded schedule of code that ships. The fast
// column (Replay): fbstencil.SolveGreenLeftOneSided reports its obstacle
// fills, copies, direct steps and FFT evolutions together with the buffers
// they read and write, and each is replayed on simulated memory that follows
// those buffers, with a traced FFT. Simulated memory holds no values: the
// counters read only addresses and flop charges, so the traced FFT is an
// access pattern. Its direct steps are in-place sweeps,
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
// shipped kernel: the accesses of a complex radix-2 transform of size N with
// its twiddle and bit-reversal tables resident in simulated memory. The
// solver instead runs a real transform through a size-N/2 split-plane
// radix-4 ladder (internal/fft) and reads its multiplier from the spectrum
// cache, where evolveCone below charges a symbol evaluation per frequency.
type tracedPlan struct {
	n       int
	rev     []int32
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
	p.revBase = h.Alloc(4 * n)
	p.twBase = h.Alloc(16 * (n / 2))
	// Table construction writes once, as in the real plan cache.
	for i := 0; i < n; i++ {
		h.Access(p.revBase + 4*uint64(i))
	}
	for k := 0; k < n/2; k++ {
		h.Access(p.twBase + 16*uint64(k))
	}
	pc[n] = p
	return p
}

// transform replays the accesses of one transform of the n 16-byte cells at
// base: bit-reversal swaps, butterflies and, if inverse, the 1/n scale.
func (p *tracedPlan) transform(h *cachesim.Hierarchy, base uint64, inverse bool) {
	n := p.n
	at := func(i int) uint64 { return base + 16*uint64(i) }
	for i, r := range p.rev {
		h.Access(p.revBase + 4*uint64(i))
		if int32(i) < r {
			h.Access(at(i)) // load i and r, then store i and r
			h.Access(at(int(r)))
			h.Access(at(i))
			h.Access(at(int(r)))
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for b := 0; b < n; b += size {
			for j := 0; j < half; j++ {
				h.Access(p.twBase + 16*uint64(j*step))
				lo, hi := b+j, b+j+half
				h.Access(at(lo)) // load lo and hi, then store hi and lo
				h.Access(at(hi))
				h.Access(at(hi))
				h.Access(at(lo))
				h.AddFlops(flopsPerButterfly)
			}
		}
	}
	if inverse {
		for i := 0; i < n; i++ {
			h.Access(at(i)) // load, then store
			h.Access(at(i))
		}
		h.AddFlops(uint64(2 * n))
	}
}

// evolveCone mirrors linstencil.EvolveConeTo on traced memory: k steps of
// the stencil with offsets 0..len(w)-1 applied to the n cells load reads in
// order. It returns the exit pass's read of in-cone output i (of the first
// n-k*(len(w)-1) positions), which the caller pairs with the store into
// its destination.
func (r *replayer) evolveCone(n int, load func(i int), w []float64, k int) func(i int) {
	h := r.h
	span := len(w) - 1
	outN := n - k*span
	if outN <= 0 {
		panic("trace: cone empty")
	}
	if n*k*(span+1) <= 1<<11 {
		// Mirror the production naive cutoff so traffic patterns match.
		buf := h.Alloc(8 * n)
		at := func(i int) uint64 { return buf + 8*uint64(i) }
		for i := 0; i < n; i++ {
			load(i)
			h.Access(at(i))
		}
		m := n
		for step := 0; step < k; step++ {
			m -= span
			for j := 0; j < m; j++ {
				for i := range w {
					h.Access(at(j + i))
				}
				h.Access(at(j))
				h.AddFlops(flopsPerCell)
			}
		}
		return func(i int) { h.Access(at(i)) }
	}

	N := fft.NextPow2(n)
	p := r.plans.get(h, N)
	a := h.Alloc(16 * N)
	at := func(i int) uint64 { return a + 16*uint64(i) }
	for i := 0; i < n; i++ {
		load(i)
		h.Access(at(i))
	}
	for i := n; i < N; i++ {
		h.Access(at(i))
	}
	p.transform(h, a, false)
	// Per frequency: the symbol (Horner and a k-th power) and the multiply.
	symbolFlops := uint64(flopsPerExp + 8*bits.Len(uint(k)) + 8)
	for f := 0; f < N; f++ {
		h.Access(at(f)) // load, then store
		h.Access(at(f))
		h.AddFlops(symbolFlops)
	}
	p.transform(h, a, true)
	return func(i int) { h.Access(at(i)) }
}
