package linstencil

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/nlstencil/amop/internal/fft"
	"github.com/nlstencil/amop/internal/gencache"
	"github.com/nlstencil/amop/internal/obs"
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
// It is stored the way fft.RPlan.Convolve reads it, so the evolution never
// reorders a spectrum: two float64 planes (real parts, then imaginary
// parts) of N/2+1 entries each, 16 B per bin, in the plan's spectral order
// — entry pos holds mult[f] for f = rp.Bin(pos), the bit-reversed order the
// DIF forward leaves the row's spectrum in.
// The cache is process-wide and safe for concurrent use, so every worker of
// a PriceBatch pool shares one copy of each spectrum.

// DefaultSpectrumCacheLimit bounds the bytes of cached multiplier spectra
// (64 MiB: a T=65536 solve's multipliers take ~5 MiB per stencil). Use
// SetSpectrumCacheLimit to resize. The cache keeps its multipliers in two
// generations (package gencache): one no evolution asked for over two turns
// is dropped, which at worst costs a recompute.
const DefaultSpectrumCacheLimit = 64 << 20

// stencilKey identifies a stencil's weights, the part of a stencil its
// multipliers depend on (the ring's MinOff modulation is a specKey's
// shift). The first four weights are inlined so key construction allocates
// nothing for the 2- and 3-point stencils of the pricing models; longer
// stencils spill into a string.
type stencilKey struct {
	w0, w1, w2, w3 float64
	nw             int
	spill          string
}

func makeKey(w []float64) stencilKey {
	key := stencilKey{nw: len(w)}
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

// specKey identifies one multiplier of a stencil: the w_f^shift modulation
// (0 for the cone, MinOff for the ring), the transform size and the step
// count. n = 0 names the stencil's own cache entry.
type specKey struct{ shift, n, k int }

// Spectra is one stencil's entry in the kernel-spectrum cache, which holds
// its multipliers in a small map keyed by integers. A solve takes its
// stencil's entry once (SpectraOf), and each evolution then looks its
// multiplier up in that map under the entry's own lock; only a miss, or a
// hit on a multiplier of the old generation, takes the cache's lock.
type Spectra struct {
	w   []float64
	key stencilKey
	mu  sync.Mutex
	m   map[specKey]mult // the multipliers the cache holds for the stencil
}

// mult is one cached multiplier and the cache's turn count when it was put
// or last promoted: it is young while the count has not moved.
type mult struct {
	v   []float64
	gen uint64
}

// cacheKey names an entry of the cache: multiplier specKey of sp, or sp's
// own entry when n is 0.
type cacheKey struct {
	sp *Spectra
	specKey
}

// specCache charges every stencil's own entry (entryBytes each) and every
// multiplier (its bytes) to one two-generation cache, so a stencil's
// multipliers age one by one. The stencils map and the stencils' own maps
// hold what the cache charges; its turns drop entries from them.
var specCache struct {
	mu       sync.Mutex
	entries  *gencache.Cache[cacheKey, struct{}]
	stencils map[stencilKey]*Spectra
}

// specTurns is specCache.entries.Turns(), which a hit reads without the
// lock to tell a young multiplier. It is written only at a turn, and padded
// to a cache line of its own, away from the lock.
var specTurns struct {
	_ [64]byte
	atomic.Uint64
	_ [56]byte
}

// syncTurns publishes the cache's turn count; the caller holds the lock.
func syncTurns() {
	if t := specCache.entries.Turns(); specTurns.Load() != t {
		specTurns.Store(t)
	}
}

func init() {
	specCache.entries = gencache.New(DefaultSpectrumCacheLimit, dropEntry)
	specCache.stencils = make(map[stencilKey]*Spectra)
}

// dropEntry forgets an entry the cache dropped. A solve that holds the
// stencil's Spectra keeps using it; the multipliers it builds from then on
// are its own.
func dropEntry(k cacheKey, _ struct{}) {
	if k.n == 0 {
		delete(specCache.stencils, k.sp.key)
		return
	}
	k.sp.mu.Lock()
	delete(k.sp.m, k.specKey)
	k.sp.mu.Unlock()
}

// entryBytes is what the cache charges a stencil's own entry (the struct,
// its weights and its map), so that stencils whose solves never reach the
// FFT still fill the young generation and age out.
const entryBytes = 256

var (
	specHits = obs.NewCounter("amop_spectrum_cache_hits_total",
		"kernel-spectrum cache lookups answered from the cache")
	specMisses = obs.NewCounter("amop_spectrum_cache_misses_total",
		"kernel-spectrum cache lookups that built the multiplier")
	_ = obs.NewGauge("amop_spectrum_cache_bytes",
		"bytes the kernel-spectrum cache holds: its multiplier spectra and a fixed charge per stencil",
		func() int64 { b, _ := specFootprint(); return b })
	_ = obs.NewGauge("amop_spectrum_cache_entries",
		"multiplier spectra the kernel-spectrum cache holds",
		func() int64 { _, n := specFootprint(); return int64(n) })
)

// specFootprint reports the cache's current size: its bytes and the number
// of its multipliers.
func specFootprint() (bytes int64, entries int) {
	specCache.mu.Lock()
	defer specCache.mu.Unlock()
	return specCache.entries.Bytes(), specCache.entries.Len() - len(specCache.stencils)
}

// SpectrumCacheStats reports the cumulative hit/miss counters and the current
// footprint of the kernel-spectrum cache.
func SpectrumCacheStats() (hits, misses, bytes int64, entries int) {
	bytes, entries = specFootprint()
	return specHits.Load(), specMisses.Load(), bytes, entries
}

// SymbolCacheStats reports symbol evaluations in the shape the benchmark
// module's per-layer metrics read. Every spectrum build evaluates its symbol
// once and nothing else does, so it reports no hits, one miss per
// spectrum-cache miss and no cross-resolution transfers.
func SymbolCacheStats() (hits, misses, crossRes int64) {
	return 0, specMisses.Load(), 0
}

// SetSpectrumCacheLimit resizes the cache's byte bound and evicts down to it.
// A non-positive limit disables caching entirely.
func SetSpectrumCacheLimit(bytes int64) {
	specCache.mu.Lock()
	specCache.entries.SetLimit(bytes)
	syncTurns()
	specCache.mu.Unlock()
}

// SpectraOf returns s's entry in the kernel-spectrum cache, creating it on
// first use; the entry a disabled cache returns is the caller's alone and
// keeps nothing.
func SpectraOf(s Stencil) *Spectra {
	key := makeKey(s.W)
	specCache.mu.Lock()
	defer specCache.mu.Unlock()
	sp := specCache.stencils[key]
	if sp != nil {
		specCache.entries.Get(cacheKey{sp: sp}) // promote it
	} else {
		sp = &Spectra{w: slices.Clone(s.W), key: key, m: make(map[specKey]mult)}
		if specCache.entries.Put(cacheKey{sp: sp}, struct{}{}, entryBytes) {
			specCache.stencils[key] = sp
		}
	}
	syncTurns()
	return sp
}

// multiplier returns the half-spectrum multiplier for k steps of the
// stencil on a size-n ring, laid out for fft.RPlan.Convolve, with the
// symbol additionally modulated by w_f^shift (shift 0 for the cone
// geometry, MinOff for the periodic one). The returned slice is shared and
// must not be written.
func (sp *Spectra) multiplier(shift, n, k int, rp *fft.RPlan) []float64 {
	key := specKey{shift, n, k}
	sp.mu.Lock()
	m, ok := sp.m[key]
	sp.mu.Unlock()
	if ok {
		specHits.Add(1)
		if m.gen != specTurns.Load() {
			sp.promote(key)
		}
		return m.v
	}
	specMisses.Add(1)
	return sp.insert(key, buildSpectrum(sp.w, shift, n, k, rp))
}

// promote moves a multiplier the old generation holds to the young one.
func (sp *Spectra) promote(key specKey) {
	specCache.mu.Lock()
	if _, ok := specCache.entries.Get(cacheKey{sp, key}); ok {
		sp.mu.Lock()
		m := sp.m[key]
		m.gen = specCache.entries.Turns()
		sp.m[key] = m
		sp.mu.Unlock()
	}
	syncTurns()
	specCache.mu.Unlock()
}

// insert caches v, a multiplier just built, unless the stencil's own entry
// is no longer cached, and returns the multiplier the stencil holds: v, or
// the one a concurrent build put first.
func (sp *Spectra) insert(key specKey, v []float64) []float64 {
	specCache.mu.Lock()
	defer specCache.mu.Unlock()
	sp.mu.Lock()
	prior, ok := sp.m[key]
	sp.mu.Unlock()
	if ok {
		return prior.v
	}
	if _, ok := specCache.entries.Get(cacheKey{sp: sp}); ok &&
		specCache.entries.Put(cacheKey{sp, key}, struct{}{}, int64(8*len(v))) {
		sp.mu.Lock()
		sp.m[key] = mult{v, specCache.entries.Turns()}
		sp.mu.Unlock()
	}
	syncTurns()
	return v
}

// buildSpectrum evaluates the multiplier conj(sym[f]^k) on the half
// spectrum, the modulated symbol sym[f] = P(w_f) * w_f^shift of the weights
// w taken from the real plan's twiddle table and raised by binary
// exponentiation (fft.Pow). The multiplier is laid out as fft.Convolve
// reads it: split planes in the plan's spectral order (fft.RPlan.Bin).
//
// Components below 2^-600 of the largest are flushed to zero. Their
// contribution to any output is far below the transform's rounding, but
// with them in place the products of the spectral pass run through
// subnormal numbers, which the CPU handles in microcode at a hundred-fold
// cost: at T = 65536 the powered symbol of the high frequencies sweeps
// through the subnormal range.
//
// So the build skips the bins the flush would zero anyway. The DC bin is
// built first; a bin with |sym|^2 < (2^-604*|DC|)^(2/k) has
// |sym^k| < 2^-604*|DC|, which stays under the flush floor
// 2^-600*|DC| <= 2^-600*largest with a 16-fold margin for Pow's rounding,
// whatever the signs of the weights. Nothing is skipped when DC is 0, below
// 2^-400 (the floor would leave the normal range), or not finite, or when k
// is too large for the margin to hold. The result is bit for bit the full
// build's.
//
// A multiplier with a NaN or Inf component panics instead of returning.
// The cache is process-wide: a poisoned entry (a pathological stencil whose
// symbol overflows under the k-th power, or corrupted weights) would
// silently contaminate every future solve sharing the key, across all
// contracts and requests. Panicking keeps the damage confined to the
// requesting solve — the batch engine's per-item recover turns it into one
// contract's error — and leaves the cache clean.
func buildSpectrum(w []float64, shift, n, k int, rp *fft.RPlan) []float64 {
	h := n/2 + 1
	m := make([]float64, 2*h)
	dc := fft.Pow(symbolAt(w, shift, rp.Twiddle(0)), k)
	m[0], m[h] = real(dc), -imag(dc)
	// Bins with |sym|^2 < skip2 are left at zero (none when skip2 is 0).
	var skip2 float64
	if a := cmplx.Abs(dc); k > 0 && k < 1<<40 && a >= 0x1p-400 && a <= math.MaxFloat64 {
		skip2 = math.Pow(0x1p-604*a, 2/float64(k))
	}
	par.For(h-1, 1024, func(lo, hi int) {
		// In frequency order, so the twiddle tables are read in order; the
		// scattered accesses are the stores.
		for f := lo + 1; f < hi+1; f++ {
			sym := symbolAt(w, shift, rp.Twiddle(f))
			if real(sym)*real(sym)+imag(sym)*imag(sym) < skip2 {
				continue
			}
			kp := fft.Pow(sym, k)
			pos := rp.Bin(f) // Bin is its own inverse
			m[pos], m[h+pos] = real(kp), -imag(kp)
		}
	})
	// The largest magnitude, compared as bits: the magnitudes of finite
	// floats order as their bit patterns, and a NaN or Inf panics below.
	var top uint64
	for _, v := range m {
		top = max(top, math.Float64bits(v)&^(1<<63))
	}
	floor := math.Ldexp(math.Float64frombits(top), -600)
	for i, v := range m {
		a := math.Abs(v)
		if a < floor {
			m[i] = 0
		} else if !(a <= math.MaxFloat64) {
			panic(fmt.Sprintf("linstencil: non-finite kernel spectrum at %d (n=%d, k=%d, weights=%v): %v", i, n, k, w, v))
		}
	}
	return m
}

// symbolAt evaluates P at omega using Horner on the shifted polynomial and
// applies the w^shift modulation.
func symbolAt(w []float64, shift int, omega complex128) complex128 {
	sym := complex(w[len(w)-1], 0)
	for i := len(w) - 2; i >= 0; i-- {
		sym = sym*omega + complex(w[i], 0)
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
