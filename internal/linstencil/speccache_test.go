package linstencil

import (
	"fmt"
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

// TestSpectrumCacheHitsAndBounds checks the cache's accounting through one
// stencil's life: a first evolution misses and charges its multiplier, a
// repeat hits on the same entry, SetSpectrumCacheLimit(0) empties the
// cache, and the next evolution misses again and is still exact.
func TestSpectrumCacheHitsAndBounds(t *testing.T) {
	defer SetSpectrumCacheLimit(DefaultSpectrumCacheLimit)
	rng := rand.New(rand.NewSource(33))
	s := Stencil{MinOff: 0, W: []float64{0.47, 0.52}}
	row := randRow(rng, 4096)
	SetSpectrumCacheLimit(0)
	SetSpectrumCacheLimit(DefaultSpectrumCacheLimit)

	_, m0, _, _ := SpectrumCacheStats()
	EvolveCone(row, s, 1024)
	h1, m1, bytes, entries := SpectrumCacheStats()
	if m1 != m0+1 {
		t.Errorf("first evolution recorded %d misses, want 1", m1-m0)
	}
	if want := int64(entryBytes + 8*2*(4096/2+1)); entries != 1 || bytes != want {
		t.Errorf("cache after one build: %d entries, %d bytes; want 1, %d", entries, bytes, want)
	}
	sp := SpectraOf(s)
	EvolveCone(row, s, 1024)
	h2, m2, _, _ := SpectrumCacheStats()
	if h2 != h1+1 || m2 != m1 {
		t.Errorf("repeat evolution: hits %d -> %d, misses %d -> %d; want one hit", h1, h2, m1, m2)
	}
	if SpectraOf(s) != sp {
		t.Error("a stencil's second lookup returned a different entry")
	}
	checkCacheBytes(t, "after inserts", DefaultSpectrumCacheLimit)

	SetSpectrumCacheLimit(0)
	if _, _, bytes, entries := SpectrumCacheStats(); bytes != 0 || entries != 0 {
		t.Errorf("cache holds %d bytes in %d entries after limit 0", bytes, entries)
	}
	checkCacheBytes(t, "after limit 0", 0)
	out, _ := EvolveCone(row, s, 1024)
	if _, m3, _, _ := SpectrumCacheStats(); m3 != m2+1 {
		t.Errorf("evolution after limit 0 recorded %d misses, want 1", m3-m2)
	}
	if _, _, bytes, entries := SpectrumCacheStats(); bytes != 0 || entries != 0 {
		t.Errorf("limit 0 kept %d bytes in %d entries", bytes, entries)
	}
	naive, _ := EvolveConeNaive(row, s, 1024)
	if d := maxDiff(out, naive); d > 1e-9 {
		t.Fatalf("post-eviction evolution off naive by %g", d)
	}
}

// checkCacheBytes asserts that the cache's byte count is exactly what its
// entries hold, entryBytes per stencil and the multipliers' bytes, within
// limit; that the stencils map finds exactly the cached stencils; and that
// each stencil's map holds exactly its cached multipliers.
func checkCacheBytes(t *testing.T, when string, limit int64) {
	t.Helper()
	specCache.mu.Lock()
	defer specCache.mu.Unlock()
	var want int64
	stencils, mults := 0, map[*Spectra]int{}
	specCache.entries.Each(func(k cacheKey, _ struct{}, charged int64) {
		held := int64(entryBytes)
		if k.n == 0 {
			stencils++
			if specCache.stencils[k.sp.key] != k.sp {
				t.Errorf("%s: cached stencil %v is not in the stencils map", when, k.sp.w)
			}
		} else {
			mults[k.sp]++
			k.sp.mu.Lock()
			m, ok := k.sp.m[k.specKey]
			k.sp.mu.Unlock()
			if !ok {
				t.Errorf("%s: stencil %v does not hold its cached multiplier %v", when, k.sp.w, k.specKey)
			}
			held = int64(8 * len(m.v))
		}
		if held != charged {
			t.Errorf("%s: entry %v of %v charged %d, holds %d bytes", when, k.specKey, k.sp.w, charged, held)
		}
		want += held
	})
	if stencils != len(specCache.stencils) {
		t.Errorf("%s: %d cached stencils, the stencils map holds %d", when, stencils, len(specCache.stencils))
	}
	for sp, n := range mults {
		sp.mu.Lock()
		if len(sp.m) != n {
			t.Errorf("%s: stencil %v holds %d multipliers, %d cached", when, sp.w, len(sp.m), n)
		}
		sp.mu.Unlock()
	}
	if got := specCache.entries.Bytes(); got != want || got > max(limit, 0) {
		t.Errorf("%s: cache counts %d bytes, its entries hold %d, limit %d", when, got, want, limit)
	}
}

// TestSpectrumCacheBoundedAcrossTurns evolves many stencils under a limit
// that holds a few of them, so the generations turn over and over: the
// cached bytes must match the entries and stay within the limit
// throughout, and every evolution must stay exact.
func TestSpectrumCacheBoundedAcrossTurns(t *testing.T) {
	defer SetSpectrumCacheLimit(DefaultSpectrumCacheLimit)
	const limit = 300 << 10
	SetSpectrumCacheLimit(0)
	SetSpectrumCacheLimit(limit)
	rng := rand.New(rand.NewSource(35))
	stencils := make([]Stencil, 12)
	for i := range stencils {
		stencils[i] = randStencil(rng)
	}
	row := randRow(rng, 2000)
	_, m0, _, _ := SpectrumCacheStats()
	for i := range 80 {
		s := stencils[rng.Intn(len(stencils))]
		k := []int{64, 200, 400}[rng.Intn(3)]
		n := []int{1000, 2000}[rng.Intn(2)]
		got, _ := EvolveCone(row[:n], s, k)
		want, _ := EvolveConeNaive(row[:n], s, k)
		if d := maxDiff(got, want); d > 1e-9 {
			t.Fatalf("evolution %d off naive by %g", i, d)
		}
		checkCacheBytes(t, fmt.Sprintf("after evolution %d", i), limit)
	}
	if _, m1, _, _ := SpectrumCacheStats(); m1-m0 <= int64(len(stencils)) {
		t.Errorf("%d misses: the generations never turned", m1-m0)
	}
}

// TestSpectrumCachePromotedStencilSurvivesTurn walks the generations by
// hand. Each stencil here takes its own entry and one multiplier, 33040
// bytes together, and a generation holds two such pairs: A and B fill the
// young generation and C turns it, so A and B are old. An evolution of A
// promotes its entry and its multiplier without a miss, D turns again, and
// then C, A and D are cached while B is gone.
func TestSpectrumCachePromotedStencilSurvivesTurn(t *testing.T) {
	defer SetSpectrumCacheLimit(DefaultSpectrumCacheLimit)
	const pair = entryBytes + 8*2*(4096/2+1)
	SetSpectrumCacheLimit(0)
	SetSpectrumCacheLimit(4 * pair)
	row := randRow(rand.New(rand.NewSource(36)), 4096)
	st := func(w0 float64) Stencil { return Stencil{W: []float64{w0, 0.99 - w0}} }
	a, b, c, d := st(0.41), st(0.42), st(0.43), st(0.44)
	misses := func() int64 { _, m, _, _ := SpectrumCacheStats(); return m }
	for _, s := range []Stencil{a, b, c} {
		EvolveCone(row, s, 1000)
	}
	m0 := misses()
	EvolveCone(row, a, 1000)
	spA := SpectraOf(a)
	EvolveCone(row, d, 1000)
	if m := misses(); m != m0+1 {
		t.Errorf("A's evolution and D's missed %d times, want D's once", m-m0)
	}
	if _, _, bytes, entries := SpectrumCacheStats(); bytes != 3*pair || entries != 3 {
		t.Errorf("after the second turn: %d bytes in %d multipliers, want C, A and D", bytes, entries)
	}
	checkCacheBytes(t, "after the turns", 4*pair)
	if SpectraOf(a) != spA {
		t.Error("the promoted stencil did not survive the turn")
	}
	EvolveCone(row, a, 1000)
	if m := misses(); m != m0+1 {
		t.Errorf("the promoted stencil's evolution missed %d times", m-m0-1)
	}
	EvolveCone(row, b, 1000)
	if m := misses(); m != m0+2 {
		t.Errorf("the unpromoted stencil's evolution missed %d times, want 1", m-m0-1)
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

// TestSpectrumCacheConcurrentTurns evolves several stencils from several
// goroutines under a limit that turns the generations over and over, so
// hits, promotions, inserts and drops interleave (run with -race). Every
// evolution must stay exact and the accounting must hold afterwards.
func TestSpectrumCacheConcurrentTurns(t *testing.T) {
	defer SetSpectrumCacheLimit(DefaultSpectrumCacheLimit)
	const limit = 200 << 10
	SetSpectrumCacheLimit(0)
	SetSpectrumCacheLimit(limit)
	rng := rand.New(rand.NewSource(38))
	stencils := []Stencil{randStencil(rng), randStencil(rng), randStencil(rng)}
	row := randRow(rng, 1500)
	var wg sync.WaitGroup
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 30 {
				s := stencils[(g+i)%len(stencils)]
				k := 100 + 50*((g*7+i)%6)
				got, _ := EvolveCone(row, s, k)
				want, _ := EvolveConeNaive(row, s, k)
				if d := maxDiff(got, want); d > 1e-9 {
					t.Errorf("goroutine %d evolution %d off naive by %g", g, i, d)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkCacheBytes(t, "after the concurrent turns", limit)
}

// TestMakeKeyDistinguishes ensures distinct weights never share a stencil
// key (spilled weights included) and that a stencil's multipliers are
// keyed apart by shift, size and step count.
func TestMakeKeyDistinguishes(t *testing.T) {
	keys := map[stencilKey]bool{
		makeKey([]float64{0.5, 0.4}):               true,
		makeKey([]float64{0.4, 0.5}):               true,
		makeKey([]float64{0.5, 0.4, 0}):            true,
		makeKey([]float64{0.5, 0.4, 0, 0}):         true,
		makeKey([]float64{0.5, 0.4, 0, 0, 0.1}):    true,
		makeKey([]float64{0.5, 0.4, 0, 0, 0.2}):    true,
		makeKey([]float64{0.5, 0.4, 0, 0, 0.1, 0}): true,
	}
	if len(keys) != 7 {
		t.Errorf("stencil key collisions: %d distinct keys, want 7", len(keys))
	}
	if makeKey([]float64{0.5, 0.4, 0, 0, 0.1}) != makeKey([]float64{0.5, 0.4, 0, 0, 0.1}) {
		t.Error("equal spilled weights make different keys")
	}
	if SpectraOf(Stencil{MinOff: -1, W: []float64{0.3, 0.3, 0.3}}) != SpectraOf(Stencil{W: []float64{0.3, 0.3, 0.3}}) {
		t.Error("one stencil's weights at two MinOffs took two entries")
	}
	mults := map[specKey]bool{
		{0, 64, 8}: true, {0, 64, 9}: true, {0, 128, 8}: true, {-1, 64, 8}: true, {1, 64, 8}: true,
	}
	if len(mults) != 5 {
		t.Errorf("multiplier key collisions: %d distinct keys, want 5", len(mults))
	}
}

// TestComputeSpectrumUsesTwiddles cross-checks the twiddle-table spectrum
// build against the direct ring evolution on a spilled (5-weight) stencil,
// covering the long-stencil key path too.
func TestComputeSpectrumUsesTwiddles(t *testing.T) {
	s := Stencil{MinOff: -2, W: []float64{0.1, 0.2, 0.3, 0.2, 0.15}}
	n := 64
	rp := fft.RPlanFor(n)
	got := buildSpectrum(s.W, s.MinOff, n, 3, rp)
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

// TestSymbolCachePoweredParity checks that a cached multiplier matches the
// full build (buildSpectrumFull) bit for bit: when first built, when
// served from the cache, and when rebuilt after SetSpectrumCacheLimit(0)
// emptied the cache; on a spilled (5-weight) stencil's ring and on the
// unshifted cone geometry. Each stencil holds one entry, and a rebuild
// costs one miss per multiplier.
func TestSymbolCachePoweredParity(t *testing.T) {
	defer SetSpectrumCacheLimit(DefaultSpectrumCacheLimit)
	SetSpectrumCacheLimit(0)
	SetSpectrumCacheLimit(DefaultSpectrumCacheLimit)
	spilled := Stencil{MinOff: -2, W: []float64{0.1, 0.2, 0.3, 0.2, 0.15}}
	binomial := Stencil{MinOff: 0, W: []float64{0.46, 0.53}}
	check := func(when string, s Stencil, shift, n, k int) {
		t.Helper()
		rp := fft.RPlanFor(n)
		got := SpectraOf(s).multiplier(shift, n, k, rp)
		want := buildSpectrumFull(s.W, shift, n, k, rp)
		if f := firstBitDiff(got, want); f >= 0 {
			t.Fatalf("%s: n=%d k=%d f=%d: cached %v != full build %v", when, n, k, f, got[f], want[f])
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
	_, m0, _, _ := SpectrumCacheStats()
	for _, c := range cases {
		check("first build", c.s, c.shift, c.n, c.k)
		check("cached", c.s, c.shift, c.n, c.k)
	}
	_, m1, bytes, entries := SpectrumCacheStats()
	if entries != len(cases) || m1-m0 != int64(len(cases)) {
		t.Errorf("cache holds %d multipliers after %d builds, want %d of each", entries, m1-m0, len(cases))
	}
	want := int64(2 * entryBytes)
	for _, c := range cases {
		want += int64(16 * (c.n/2 + 1))
	}
	if bytes != want {
		t.Errorf("cache holds %d bytes, want %d", bytes, want)
	}
	specCache.mu.Lock()
	if n := len(specCache.stencils); n != 2 {
		t.Errorf("cache holds %d stencil entries, want 2", n)
	}
	specCache.mu.Unlock()
	SetSpectrumCacheLimit(0)
	SetSpectrumCacheLimit(DefaultSpectrumCacheLimit)
	for _, c := range cases {
		check("rebuilt", c.s, c.shift, c.n, c.k)
	}
	if _, m2, _, _ := SpectrumCacheStats(); m2-m1 != int64(len(cases)) {
		t.Errorf("%d rebuilds after eviction, want one per multiplier (%d)", m2-m1, len(cases))
	}
	if h, m, x := SymbolCacheStats(); h != 0 || m != specMisses.Load() || x != 0 {
		t.Errorf("SymbolCacheStats = (%d, %d, %d), want (0, %d, 0)", h, m, x, specMisses.Load())
	}
}
