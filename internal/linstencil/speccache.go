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

var specCache = struct {
	mu      sync.Mutex
	entries map[symKey][]complex128
	bytes   int64
	limit   int64
}{
	entries: make(map[symKey][]complex128),
	limit:   DefaultSpectrumCacheLimit,
}

var (
	specHits   atomic.Int64
	specMisses atomic.Int64
)

// SpectrumCacheStats reports the cumulative hit/miss counters and the current
// footprint of the kernel-spectrum cache.
func SpectrumCacheStats() (hits, misses, bytes int64, entries int) {
	specCache.mu.Lock()
	bytes, entries = specCache.bytes, len(specCache.entries)
	specCache.mu.Unlock()
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
	specCache.limit = bytes
	evictLocked()
	specCache.mu.Unlock()
}

// evictLocked drops arbitrary entries until the cache fits its limit. Map
// iteration order is effectively random, which is eviction policy enough:
// the working set of a solve is tiny compared to the default bound, and a
// wrong eviction costs one recompute.
func evictLocked() {
	for k, v := range specCache.entries {
		if specCache.bytes <= specCache.limit {
			return
		}
		specCache.bytes -= int64(16 * len(v))
		delete(specCache.entries, k)
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

	m := buildSpectrum(s, shift, n, k, rp)
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

// buildSpectrum evaluates the multiplier conj(sym[f]^k) on the half
// spectrum in one pass, the modulated symbol sym[f] = P(w_f) * w_f^shift
// taken from the real plan's twiddle table and raised by binary
// exponentiation (fft.Pow). kernelSpectrum calls it on a miss; tests use it
// as the fresh reference a cached multiplier must match bit for bit.
func buildSpectrum(s Stencil, shift, n, k int, rp *fft.RPlan) []complex128 {
	m := make([]complex128, n/2+1)
	par.For(len(m), 1024, func(lo, hi int) {
		for f := lo; f < hi; f++ {
			kp := fft.Pow(symbolAt(s, shift, rp.Twiddle(f)), k)
			m[f] = complex(real(kp), -imag(kp))
		}
	})
	return m
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
