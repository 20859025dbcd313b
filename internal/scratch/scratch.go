// Package scratch provides size-classed buffer pools for the fast solver's
// hot loop. The free-boundary recursion and the FFT substrate allocate and
// discard row segments, padded transform inputs, and spectra at every
// recursion level; at T = 10^5+ that is tens of thousands of short-lived
// slices per solve, and under batch traffic the garbage collector becomes a
// measurable fraction of the run. Pooling by power-of-two capacity class
// turns the steady state into zero allocations per solve.
//
// Each capacity class keeps its idle buffers in up to two tiers, chosen by
// the byte size of the class's buffers:
//
//   - Classes of at most magazineBytes (256 KiB) per buffer — the row
//     buffers of the sweeps, the analytic tier and the first requests of a
//     solve's workspace — keep them first in per-P magazines: a sync.Pool of
//     *magazine, where a magazine is a fixed array of up to magazineCap
//     buffers plus a count. Get and Put touch only the current P's magazine,
//     so the steady state takes no lock and parallel workers never queue
//     behind one another. The sync.Pool stores a pointer, which fits in an
//     interface without boxing; storing the slices themselves would allocate
//     a header on every Put, one allocation back on the hot path per
//     recycled buffer. Idle memory is at most about P × magazineCap × 256 KiB
//     per class (a few more magazines exist while goroutines hold them), and
//     sync.Pool releases magazines that sit idle through two GC cycles. A Put
//     that finds its magazine full spills into the class's freelist, and a
//     get that finds its magazine empty tries the freelist before it
//     allocates: a workspace returns a solve's buffers in one batch, often
//     more than a magazine holds, and the next solve may run on another P.
//   - Larger classes keep only a mutex-guarded LIFO freelist. They see few
//     calls per solve (the top levels of the FFT recursion), so the lock is
//     cold, and the process-wide bound keeps idle multi-MiB buffers reused
//     instead of spread across magazines.
//
// Every freelist holds at most maxClassBytes of idle buffers (see retain),
// anything beyond dropped to the GC. Workspace adds a per-solve tier on top:
// unsynchronized LIFO freelists that a solve fills from these pools and
// empties into them in one batch when it ends.
//
// Classes whose single buffer exceeds maxClassBytes are never pooled.
//
// Ownership protocol: Floats returns a buffer with *undefined contents*
// (callers must overwrite every element they read back) and the caller
// becomes its owner. Ownership transfers with the slice; whoever holds the
// last live reference may return the buffer with PutFloats.
// Returning a buffer that is still referenced elsewhere is a data race —
// when ownership is unclear, simply drop the buffer and let the GC take it;
// the pools are an optimization, never a requirement.
package scratch

import (
	"math/bits"
	"sync"

	"github.com/nlstencil/amop/internal/obs"
)

const (
	// maxClass bounds the pooled capacity classes at 2^maxClass elements;
	// larger requests go straight to the allocator.
	maxClass = 28

	// minClass is the smallest pooled capacity class (2^5 = 32 elements).
	// Smaller slices cost less to allocate than to round-trip through a pool.
	minClass = 5

	// maxClassBytes bounds the idle buffers a class's freelist retains;
	// buffers larger than this on their own are never retained at all. The
	// freelists therefore hold at most maxClassBytes per retaining class
	// (classes 2^5..2^22 elements) in the degenerate worst case and, in
	// practice, a few dozen MiB shaped like the largest recent solves: a
	// magazine class's freelist holds only what its magazines could not.
	maxClassBytes = 32 << 20

	// magazineBytes is the largest buffer the per-P magazine tier holds:
	// classes up to 2^15 elements.
	magazineBytes = 256 << 10

	// magazineCap is the number of idle buffers one magazine holds.
	magazineCap = 8
)

// misses counts poolable requests that found no idle buffer and allocated.
var misses = obs.NewCounter("amop_scratch_misses_total",
	"poolable scratch-buffer requests that found no idle buffer and allocated")

// Misses reports how many poolable Floats requests had to allocate
// since process start.
func Misses() int64 { return misses.Load() }

// magazine is a per-P stack of idle buffers of one capacity class.
type magazine[T any] struct {
	n    int
	bufs [magazineCap][]T
}

// pool is one capacity class: magazines (magazine-tier classes only), and
// the freelist under mu.
type pool[T any] struct {
	mags sync.Pool // of *magazine[T]
	mu   sync.Mutex
	free [][]T
}

// pools is the set of capacity classes for one element type.
type pools[T any] struct {
	elemSize int
	class    [maxClass + 1]pool[T]
}

var floatPools = pools[float64]{elemSize: 8}

// retain reports how many idle buffers a class of the given element size may
// hold under the maxClassBytes bound. Classes whose single buffer already
// exceeds the bound retain nothing: parking multi-GiB one-off rows for the
// process lifetime costs far more than the one allocation dropping them
// costs the next giant solve.
func retain(c int, elemSize int) int {
	return maxClassBytes / (elemSize << c)
}

// class returns the pool index for a request of n elements, or -1 when the
// request should bypass the pools.
func class(n int) int {
	if n <= 0 || n > 1<<maxClass {
		return -1
	}
	c := bits.Len(uint(n - 1)) // ceil(log2(n)), and 0 for n == 1
	if c < minClass {
		c = minClass
	}
	return c
}

// magazined reports whether class c keeps its idle buffers in magazines.
func (ps *pools[T]) magazined(c int) bool { return ps.elemSize<<c <= magazineBytes }

func (ps *pools[T]) get(n int) []T {
	c := class(n)
	if c < 0 || ps.elemSize<<c > maxClassBytes { // retain(c) == 0, without the division
		return make([]T, n)
	}
	p := &ps.class[c]
	if ps.magazined(c) {
		if m, _ := p.mags.Get().(*magazine[T]); m != nil {
			if m.n > 0 {
				m.n--
				b := m.bufs[m.n]
				m.bufs[m.n] = nil
				p.mags.Put(m)
				return b[:n]
			}
			p.mags.Put(m)
		}
	}
	if b := p.pop(); b != nil {
		return b[:n]
	}
	misses.Add(1)
	return make([]T, n, 1<<c)
}

// pop takes the last buffer of the class's freelist, or nil.
func (p *pool[T]) pop() []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	last := len(p.free) - 1
	if last < 0 {
		return nil
	}
	b := p.free[last]
	p.free[last] = nil
	p.free = p.free[:last]
	return b
}

func (ps *pools[T]) put(b []T) {
	c := cap(b)
	if c < 1<<minClass || c > 1<<maxClass || c&(c-1) != 0 {
		return
	}
	ps.putBatch(bits.Len(uint(c))-1, [][]T{b})
}

// putBatch returns bufs, all of class c, to the pools: the P's magazine
// takes what it has room for, and the class's freelist, under one lock,
// the rest, up to retain(c) idle buffers.
func (ps *pools[T]) putBatch(c int, bufs [][]T) {
	p := &ps.class[c]
	if ps.magazined(c) {
		m, _ := p.mags.Get().(*magazine[T])
		if m == nil {
			m = new(magazine[T])
		}
		for len(bufs) > 0 && m.n < magazineCap {
			m.bufs[m.n] = bufs[0][:0]
			m.n++
			bufs = bufs[1:]
		}
		p.mags.Put(m)
		if len(bufs) == 0 {
			return
		}
	}
	p.mu.Lock()
	for _, b := range bufs {
		if len(p.free) >= retain(c, ps.elemSize) {
			break
		}
		p.free = append(p.free, b[:0])
	}
	p.mu.Unlock()
}

// Floats returns a []float64 of length n with undefined contents and,
// for poolable sizes, capacity rounded up to a power of two. Sizes whose
// class can never retain a buffer (a single buffer over maxClassBytes) are
// allocated at exact length: rounding up would pay up to 2x transient memory
// for zero pooling benefit.
func Floats(n int) []float64 { return floatPools.get(n) }

// PutFloats returns a buffer obtained from Floats to its pool. Buffers whose
// capacity is not a power of two (foreign allocations, or pool buffers
// re-sliced so their backing array is no longer fully owned) are dropped, as
// are nil, tiny, and over-cap buffers.
func PutFloats(b []float64) { floatPools.put(b) }
