package linstencil

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/nlstencil/amop/internal/fft"
	"github.com/nlstencil/amop/internal/par"
)

// The free-boundary recursion asks EvolveCone for the same handful of
// (stencil, transform size, step count) combinations over and over: every
// trapezoid of height h needs the stencil symbol raised to the powers h,
// h/2, h/4, ... at the same padded sizes, thousands of times per solve and —
// because a batch reprices the same lattices across strikes and expiries —
// millions of times per chain. The kernel-spectrum cache memoizes the
// pointwise multiplier
//
//	mult[f] = conj( (P(w_f) * w_f^shift)^k ),  w_f = exp(-2*pi*i*f/N)
//
// on the half spectrum f in [0, N/2], with symbol evaluation done once per
// key from the real plan's twiddle table instead of per-call math.Sincos.
// The cache is process-wide and safe for concurrent use, so every worker of
// a PriceBatch pool shares one copy of each spectrum.
//
// The cache is layered. Below the powered multipliers sits a symbol-table
// layer holding sym[f] = P(w_f) * w_f^shift — the modulated symbol before
// the k-th power — keyed by (stencil, shift, N) only. Every step count k at
// one transform size derives its multiplier from the same table with one
// fft.Pow per frequency, so the Horner evaluation of the symbol is paid once
// per size instead of once per (size, k) pair. And because the half-spectrum
// frequencies of size N are exactly the even frequencies of size 2N
// (w_f^(N) = w_2f^(2N), bitwise: both twiddle tables round the same real
// number), tables transfer across resolutions: a table at a larger size
// subsamples exactly to any smaller power of two, and a table at a smaller
// size seeds the even entries of a larger one so only the odd frequencies
// need fresh evaluation. A scenario sweep that reprices the same stencil at
// several step counts — full resolution for the base book, reduced
// resolution for the bump grid — therefore evaluates each symbol once per
// resolution family rather than once per padded size. SymbolCacheStats and
// amop.ReadPerfCounters expose the cross-resolution transfer counters.

// DefaultSpectrumCacheLimit bounds the bytes of cached multiplier spectra
// (64 MiB ~ enough for every level of a T=2^20 solve many times over). Use
// SetSpectrumCacheLimit to resize; entries are evicted arbitrarily once the
// bound is exceeded, which at worst costs a recompute.
const DefaultSpectrumCacheLimit = 64 << 20

// symKey identifies one cached multiplier spectrum. The first four stencil
// weights are inlined so key construction allocates nothing for the 2- and
// 3-point stencils of the pricing models; longer stencils spill into a
// string.
type symKey struct {
	w0, w1, w2, w3 float64
	nw             int
	spill          string
	shift          int // w_f^shift modulation: 0 for cone, MinOff for ring
	n, k           int
}

func makeKey(s Stencil, shift, n, k int) symKey {
	key := symKey{nw: len(s.W), shift: shift, n: n, k: k}
	w := s.W
	switch {
	case len(w) > 4:
		key.spill = weightsString(w[4:])
		w = w[:4]
		fallthrough
	case len(w) == 4:
		key.w3 = w[3]
		fallthrough
	case len(w) == 3:
		key.w2 = w[2]
		fallthrough
	case len(w) == 2:
		key.w1 = w[1]
		fallthrough
	default:
		key.w0 = w[0]
	}
	return key
}

func weightsString(w []float64) string {
	b := make([]byte, 0, 8*len(w))
	for _, v := range w {
		// NaN/Inf are rejected by Validate; raw bits are a faithful key.
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b = append(b, byte(bits>>(8*i)))
		}
	}
	return string(b)
}

// tabKey identifies one cached symbol table: a symKey without the step
// count. Tables are shared by every power k requested at one transform size,
// and are the unit of cross-resolution transfer.
type tabKey struct {
	w0, w1, w2, w3 float64
	nw             int
	spill          string
	shift          int
	n              int
}

// tab projects the powered-spectrum key onto its symbol-table key.
func (k symKey) tab() tabKey {
	return tabKey{w0: k.w0, w1: k.w1, w2: k.w2, w3: k.w3, nw: k.nw, spill: k.spill, shift: k.shift, n: k.n}
}

// at returns the same stencil/shift key at a different transform size.
func (k tabKey) at(n int) tabKey {
	k.n = n
	return k
}

var specCache = struct {
	mu      sync.Mutex
	entries map[symKey][]complex128
	symbols map[tabKey][]complex128
	// maxSymN is the largest transform size a symbol table was ever cached
	// at: the upper bound of the cross-resolution donor scan. It is never
	// lowered on eviction — a stale bound only costs a few empty map lookups
	// on the miss path.
	maxSymN int
	bytes   int64
	limit   int64
}{
	entries: make(map[symKey][]complex128),
	symbols: make(map[tabKey][]complex128),
	limit:   DefaultSpectrumCacheLimit,
}

var (
	specHits     atomic.Int64
	specMisses   atomic.Int64
	symbolHits   atomic.Int64
	symbolMisses atomic.Int64
	crossResHits atomic.Int64
)

// SpectrumCacheStats reports the cumulative hit/miss counters and the current
// footprint of the kernel-spectrum cache. bytes and entries cover both layers
// (powered multipliers and symbol tables); they share one budget.
func SpectrumCacheStats() (hits, misses, bytes int64, entries int) {
	specCache.mu.Lock()
	bytes, entries = specCache.bytes, len(specCache.entries)+len(specCache.symbols)
	specCache.mu.Unlock()
	return specHits.Load(), specMisses.Load(), bytes, entries
}

// SymbolCacheStats reports the symbol-table layer's cumulative counters:
// exact-size table reuse (hits), tables that had to be built (misses), and —
// of those builds — how many were derived from a table cached at a different
// transform size (crossRes: an exact subsample from a larger table, or a
// build seeded with the even frequencies of a smaller one) instead of
// evaluated from scratch.
func SymbolCacheStats() (hits, misses, crossRes int64) {
	return symbolHits.Load(), symbolMisses.Load(), crossResHits.Load()
}

// SetSpectrumCacheLimit resizes the cache's byte bound and evicts down to it.
// A non-positive limit disables caching entirely.
func SetSpectrumCacheLimit(bytes int64) {
	specCache.mu.Lock()
	specCache.limit = bytes
	evictLocked()
	specCache.mu.Unlock()
}

// evictLocked drops arbitrary entries until the cache fits its limit. Map
// iteration order is effectively random, which is eviction policy enough:
// the working set of a solve is tiny compared to the default bound, and a
// wrong eviction costs one recompute. Powered multipliers go first — they
// rebuild from a symbol table with one Pow per frequency, while a symbol
// table eviction may cost a fresh Horner sweep.
func evictLocked() {
	for k, v := range specCache.entries {
		if specCache.bytes <= specCache.limit {
			return
		}
		specCache.bytes -= int64(16 * len(v))
		delete(specCache.entries, k)
	}
	for k, v := range specCache.symbols {
		if specCache.bytes <= specCache.limit {
			return
		}
		specCache.bytes -= int64(16 * len(v))
		delete(specCache.symbols, k)
	}
}

// kernelSpectrum returns the half-spectrum multiplier for k steps of s on a
// size-n ring, with the symbol additionally modulated by w_f^shift (shift 0
// for the cone geometry, MinOff for the periodic one). The returned slice is
// shared and must not be written.
func kernelSpectrum(s Stencil, shift, n, k int, rp *fft.RPlan) []complex128 {
	key := makeKey(s, shift, n, k)
	specCache.mu.Lock()
	if m, ok := specCache.entries[key]; ok {
		specCache.mu.Unlock()
		specHits.Add(1)
		return m
	}
	specCache.mu.Unlock()
	specMisses.Add(1)

	m := powerSpectrum(symbolTable(key.tab(), s, rp), k)
	checkSpectrumHealth(m, s, n, k)

	specCache.mu.Lock()
	if specCache.limit > 0 {
		if prior, ok := specCache.entries[key]; ok {
			m = prior // concurrent computation won; share one copy
		} else {
			specCache.entries[key] = m
			specCache.bytes += int64(16 * len(m))
			evictLocked()
		}
	}
	specCache.mu.Unlock()
	return m
}

// symbolTable returns the cached modulated-symbol table sym[f] for the key's
// (stencil, shift, n), building it on a miss. The build prefers deriving from
// a table of the same stencil cached at another resolution: a larger table
// subsamples exactly (w_f at size n is w_{f*r} at size n*r, bitwise), a
// smaller one seeds every r-th entry so only the remaining frequencies pay
// the Horner evaluation. The returned slice is shared and must not be
// written.
func symbolTable(tk tabKey, s Stencil, rp *fft.RPlan) []complex128 {
	n := tk.n
	specCache.mu.Lock()
	if tab, ok := specCache.symbols[tk]; ok {
		specCache.mu.Unlock()
		symbolHits.Add(1)
		return tab
	}
	// Scan for a donor at another power-of-two size while still holding the
	// lock; published tables are immutable, so only the map lookups need it.
	var src []complex128
	srcN := 0
	for nn := n << 1; nn > 0 && nn <= specCache.maxSymN; nn <<= 1 {
		if t, ok := specCache.symbols[tk.at(nn)]; ok {
			src, srcN = t, nn
			break
		}
	}
	if src == nil {
		for nn := n >> 1; nn >= 2; nn >>= 1 {
			if t, ok := specCache.symbols[tk.at(nn)]; ok {
				src, srcN = t, nn
				break
			}
		}
	}
	specCache.mu.Unlock()
	symbolMisses.Add(1)

	var tab []complex128
	switch {
	case srcN > n:
		tab = subsampleSymbol(src, srcN, n)
		crossResHits.Add(1)
	case srcN > 0:
		tab = seedSymbol(src, srcN, s, tk.shift, n, rp)
		crossResHits.Add(1)
	default:
		tab = computeSymbol(s, tk.shift, n, rp)
	}

	specCache.mu.Lock()
	if specCache.limit > 0 {
		if prior, ok := specCache.symbols[tk]; ok {
			tab = prior // concurrent build won; share one copy
		} else {
			specCache.symbols[tk] = tab
			specCache.bytes += int64(16 * len(tab))
			if n > specCache.maxSymN {
				specCache.maxSymN = n
			}
			evictLocked()
		}
	}
	specCache.mu.Unlock()
	return tab
}

// subsampleSymbol projects a symbol table at size srcN down to size n < srcN:
// frequency f of the size-n circle is frequency f*(srcN/n) of the size-srcN
// circle, so the smaller table is an exact stride copy of the larger one.
func subsampleSymbol(src []complex128, srcN, n int) []complex128 {
	r := srcN / n
	tab := make([]complex128, n/2+1)
	for f := range tab {
		tab[f] = src[f*r]
	}
	return tab
}

// seedSymbol builds a symbol table at size n > srcN with every (n/srcN)-th
// entry copied from the smaller table (those frequencies coincide on the unit
// circle) and only the remaining frequencies evaluated fresh — half the
// Horner work when the donor is one octave down.
func seedSymbol(src []complex128, srcN int, s Stencil, shift, n int, rp *fft.RPlan) []complex128 {
	r := n / srcN
	half := n / 2
	tab := make([]complex128, half+1)
	par.For(half+1, 1024, func(lo, hi int) {
		for f := lo; f < hi; f++ {
			if f%r == 0 {
				tab[f] = src[f/r]
				continue
			}
			tab[f] = symbolAt(s, shift, rp.Twiddle(f))
		}
	})
	return tab
}

// computeSymbol evaluates the modulated symbol sym[f] = P(w_f) * w_f^shift on
// the half spectrum from the real plan's twiddle table.
func computeSymbol(s Stencil, shift, n int, rp *fft.RPlan) []complex128 {
	half := n / 2
	tab := make([]complex128, half+1)
	par.For(half+1, 1024, func(lo, hi int) {
		for f := lo; f < hi; f++ {
			tab[f] = symbolAt(s, shift, rp.Twiddle(f))
		}
	})
	return tab
}

// symbolAt evaluates P at omega using Horner on the shifted polynomial and
// applies the w^shift modulation.
func symbolAt(s Stencil, shift int, omega complex128) complex128 {
	sym := complex(s.W[len(s.W)-1], 0)
	for i := len(s.W) - 2; i >= 0; i-- {
		sym = sym*omega + complex(s.W[i], 0)
	}
	switch {
	case shift > 0:
		sym *= fft.Pow(omega, shift)
	case shift < 0:
		mod := fft.Pow(omega, -shift)
		sym *= complex(real(mod), -imag(mod))
	}
	return sym
}

// checkSpectrumHealth refuses to publish a multiplier spectrum containing
// NaN or Inf. The cache is process-wide: a poisoned entry (a pathological
// stencil whose symbol overflows under the k-th power, or corrupted weights)
// would silently contaminate every future solve sharing the key, across all
// contracts and requests. Panicking instead keeps the damage confined to the
// requesting solve — the batch engine's per-item recover turns it into one
// contract's error — and leaves the cache clean. Cost: one O(n) scan per
// cache build; the hit path is untouched.
func checkSpectrumHealth(m []complex128, s Stencil, n, k int) {
	for f, v := range m {
		re, im := real(v), imag(v)
		if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			panic(fmt.Sprintf("linstencil: non-finite kernel spectrum at f=%d (n=%d, k=%d, weights=%v): %v", f, n, k, s.W, v))
		}
	}
}

// powerSpectrum raises a symbol table to the k-th power pointwise (binary
// exponentiation, fft.Pow) and conjugates, producing the multiplier the
// evolution hot path applies — O(n log k), paid once per (size, k) cache key
// while the O(n * span) symbol evaluation is amortized across all k.
func powerSpectrum(tab []complex128, k int) []complex128 {
	m := make([]complex128, len(tab))
	par.For(len(tab), 1024, func(lo, hi int) {
		for f := lo; f < hi; f++ {
			kp := fft.Pow(tab[f], k)
			m[f] = complex(real(kp), -imag(kp))
		}
	})
	return m
}

// computeSpectrum evaluates the full symbol power on the half spectrum
// without touching either cache layer. Kept as the from-scratch reference for
// tests; the production path is kernelSpectrum.
func computeSpectrum(s Stencil, shift, n, k int, rp *fft.RPlan) []complex128 {
	return powerSpectrum(computeSymbol(s, shift, n, rp), k)
}
