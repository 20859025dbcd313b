package linstencil

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/nlstencil/amop/internal/fft"
)

// TestEvolveConeEdgeSizesMatchNaive pins the FFT evolution against the
// direct oracle within 1e-9 relative error across sizes, including size 2
// and odd lengths (which EvolveCone pads up internally).
func TestEvolveConeEdgeSizesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{2, 3, 5, 17, 64, 100, 257, 1000, 4096, 4097} {
		for trial := 0; trial < 4; trial++ {
			s := randStencil(rng)
			maxK := (n - 1) / s.Span()
			if maxK == 0 {
				continue
			}
			k := 1 + rng.Intn(maxK)
			row := randRow(rng, n)

			fast, fp1 := EvolveCone(row, s, k)
			naive, fp2 := EvolveConeNaive(row, s, k)
			if fp1 != fp2 || len(fast) != len(naive) {
				t.Fatalf("n=%d k=%d: shape mismatch (%d,%d) vs (%d,%d)", n, k, fp1, len(fast), fp2, len(naive))
			}
			for i := range fast {
				scale := 1 + math.Abs(naive[i])
				if d := math.Abs(fast[i] - naive[i]); d > 1e-9*scale {
					t.Fatalf("n=%d k=%d: FFT vs direct diff %g at %d", n, k, d, i)
				}
			}
		}
	}
}

// TestEvolvePeriodicSize1 covers the tiny rings n in {1, 2, 4, 8}: the
// first three run the transform's closed-form sizes, n = 8 the smallest
// kernel size.
func TestEvolvePeriodicSize1(t *testing.T) {
	s := Stencil{MinOff: -1, W: []float64{0.25, 0.5, 0.2}}
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{1, 2, 4, 8} {
		row := randRow(rng, n)
		for _, k := range []int{0, 1, 7} {
			want := EvolvePeriodicNaive(row, s, k)
			if d := maxDiff(EvolvePeriodic(row, s, k), want); d > 1e-12 {
				t.Fatalf("n=%d k=%d: ring evolution off naive by %g", n, k, d)
			}
		}
	}
}

func TestSpectrumCacheHitsAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s := Stencil{MinOff: 0, W: []float64{0.47, 0.52}}
	row := randRow(rng, 4096)

	h0, m0, _, _ := SpectrumCacheStats()
	EvolveCone(row, s, 1024)
	h1, m1, bytes, entries := SpectrumCacheStats()
	if m1 == m0 {
		t.Error("first evolution did not record a cache miss")
	}
	if entries == 0 || bytes <= 0 {
		t.Errorf("cache empty after a solve: %d entries, %d bytes", entries, bytes)
	}
	EvolveCone(row, s, 1024)
	h2, m2, _, _ := SpectrumCacheStats()
	if h2 <= h1 {
		t.Errorf("repeat evolution did not hit the cache (hits %d -> %d)", h1, h2)
	}
	if m2 != m1 {
		t.Errorf("repeat evolution recomputed the spectrum (misses %d -> %d)", m1, m2)
	}
	_ = h0
	checkCacheBytes(t, "after inserts")

	// Shrinking the limit must evict down to the bound; restoring must leave
	// a working cache.
	SetSpectrumCacheLimit(1)
	_, _, bytes, _ = SpectrumCacheStats()
	if bytes > 1 {
		t.Errorf("cache holds %d bytes after limit 1", bytes)
	}
	checkCacheBytes(t, "after eviction")
	SetSpectrumCacheLimit(DefaultSpectrumCacheLimit)
	out, _ := EvolveCone(row, s, 1024)
	naive, _ := EvolveConeNaive(row, s, 1024)
	if d := maxDiff(out, naive); d > 1e-9 {
		t.Fatalf("post-eviction evolution off naive by %g", d)
	}
}

// checkCacheBytes asserts that the cache's byte count is exactly the size of
// the multipliers it holds.
func checkCacheBytes(t *testing.T, when string) {
	t.Helper()
	specCache.mu.Lock()
	defer specCache.mu.Unlock()
	var want int64
	for _, m := range specCache.entries {
		want += int64(8 * len(m))
	}
	if specCache.bytes != want {
		t.Errorf("%s: cache counts %d bytes, its entries hold %d", when, specCache.bytes, want)
	}
}

// TestSpectrumCacheConcurrent hammers one key from many goroutines; run with
// -race. All callers must see identical, correct multipliers.
func TestSpectrumCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	s := Stencil{MinOff: -1, W: []float64{0.3, 0.35, 0.3}}
	row := randRow(rng, 1024)
	want, _ := EvolveConeNaive(row, s, 128)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, _ := EvolveCone(row, s, 128)
				if d := maxDiff(got, want); d > 1e-9 {
					t.Errorf("concurrent evolution off naive by %g", d)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMakeKeyDistinguishes ensures distinct stencils, shifts, sizes and step
// counts never collide.
func TestMakeKeyDistinguishes(t *testing.T) {
	base := Stencil{MinOff: 0, W: []float64{0.5, 0.4}}
	keys := map[symKey]bool{
		makeKey(base, 0, 64, 8):  true,
		makeKey(base, 0, 64, 9):  true,
		makeKey(base, 0, 128, 8): true,
		makeKey(base, -1, 64, 8): true,
		makeKey(Stencil{MinOff: 0, W: []float64{0.4, 0.5}}, 0, 64, 8):            true,
		makeKey(Stencil{MinOff: 0, W: []float64{0.5, 0.4, 0}}, 0, 64, 8):         true,
		makeKey(Stencil{MinOff: 0, W: []float64{0.5, 0.4, 0, 0, 0.1}}, 0, 64, 8): true,
		makeKey(Stencil{MinOff: 0, W: []float64{0.5, 0.4, 0, 0, 0.2}}, 0, 64, 8): true,
	}
	if len(keys) != 8 {
		t.Errorf("key collisions: %d distinct keys, want 8", len(keys))
	}
}

// TestComputeSpectrumUsesTwiddles cross-checks the twiddle-table spectrum
// build against the direct ring evolution on a spilled (5-weight) stencil,
// covering the long-stencil key path too.
func TestComputeSpectrumUsesTwiddles(t *testing.T) {
	s := Stencil{MinOff: -2, W: []float64{0.1, 0.2, 0.3, 0.2, 0.15}}
	n := 64
	rp := fft.RPlanFor(n)
	got := buildSpectrum(s, s.MinOff, n, 3, rp)
	row := make([]float64, n)
	row[5] = 1
	fast := EvolvePeriodic(row, s, 3)
	naive := EvolvePeriodicNaive(row, s, 3)
	if d := maxDiff(fast, naive); d > 1e-12 {
		t.Fatalf("5-weight ring evolution off naive by %g", d)
	}
	if len(got) != 2*(n/2+1) {
		t.Fatalf("spectrum length %d", len(got))
	}
}

// TestSymbolCachePoweredParity checks that a cached multiplier matches a
// fresh buildSpectrum bit for bit: on a spilled (5-weight) key, on the
// unshifted cone geometry, and for a multiplier rebuilt after
// SetSpectrumCacheLimit(1) evicted it.
func TestSymbolCachePoweredParity(t *testing.T) {
	SetSpectrumCacheLimit(0)
	SetSpectrumCacheLimit(DefaultSpectrumCacheLimit)
	spilled := Stencil{MinOff: -2, W: []float64{0.1, 0.2, 0.3, 0.2, 0.15}}
	binomial := Stencil{MinOff: 0, W: []float64{0.46, 0.53}}
	check := func(when string, s Stencil, shift, n, k int) {
		t.Helper()
		rp := fft.RPlanFor(n)
		got := kernelSpectrum(s, shift, n, k, rp)
		want := buildSpectrum(s, shift, n, k, rp)
		for f := range want {
			if got[f] != want[f] {
				t.Fatalf("%s: n=%d k=%d f=%d: cached %v != fresh %v", when, n, k, f, got[f], want[f])
			}
		}
	}
	cases := []struct {
		s     Stencil
		shift int
		n, k  int
	}{
		{spilled, spilled.MinOff, 64, 3},
		{spilled, spilled.MinOff, 64, 16},
		{spilled, spilled.MinOff, 64, 17},
		{spilled, spilled.MinOff, 2048, 9},
		{binomial, 0, 4096, 1024},
	}
	for _, c := range cases {
		check("first build", c.s, c.shift, c.n, c.k)
		check("cached", c.s, c.shift, c.n, c.k)
	}
	if _, _, _, entries := SpectrumCacheStats(); entries != len(cases) {
		t.Errorf("cache holds %d entries, want %d", entries, len(cases))
	}
	SetSpectrumCacheLimit(1)
	_, m0, _, _ := SpectrumCacheStats()
	SetSpectrumCacheLimit(DefaultSpectrumCacheLimit)
	for _, c := range cases {
		check("rebuilt", c.s, c.shift, c.n, c.k)
	}
	if _, m1, _, _ := SpectrumCacheStats(); m1-m0 != int64(len(cases)) {
		t.Errorf("%d rebuilds after eviction, want one per key (%d)", m1-m0, len(cases))
	}
	if h, m, x := SymbolCacheStats(); h != 0 || m != specMisses.Load() || x != 0 {
		t.Errorf("SymbolCacheStats = (%d, %d, %d), want (0, %d, 0)", h, m, x, specMisses.Load())
	}
}
