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

	// Shrinking the limit must evict down to the bound; restoring must leave
	// a working cache.
	SetSpectrumCacheLimit(1)
	_, _, bytes, _ = SpectrumCacheStats()
	if bytes > 1 {
		t.Errorf("cache holds %d bytes after limit 1", bytes)
	}
	SetSpectrumCacheLimit(DefaultSpectrumCacheLimit)
	out, _ := EvolveCone(row, s, 1024)
	naive, _ := EvolveConeNaive(row, s, 1024)
	if d := maxDiff(out, naive); d > 1e-9 {
		t.Fatalf("post-eviction evolution off naive by %g", d)
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

// TestComputeSpectrumUsesTwiddles cross-checks the table-driven symbol
// evaluation against a directly computed spectrum on a spilled (5-weight)
// stencil, covering the long-stencil key path too.
func TestComputeSpectrumUsesTwiddles(t *testing.T) {
	s := Stencil{MinOff: -2, W: []float64{0.1, 0.2, 0.3, 0.2, 0.15}}
	n := 64
	rp := fft.RPlanFor(n)
	got := computeSpectrum(s, s.MinOff, n, 3, rp)
	row := make([]float64, n)
	row[5] = 1
	fast := EvolvePeriodic(row, s, 3)
	naive := EvolvePeriodicNaive(row, s, 3)
	if d := maxDiff(fast, naive); d > 1e-12 {
		t.Fatalf("5-weight ring evolution off naive by %g", d)
	}
	if len(got) != n/2+1 {
		t.Fatalf("spectrum length %d", len(got))
	}
}

// resetSpecCache flushes both cache layers so a test observes its own
// hits/misses/transfers regardless of what ran before it.
func resetSpecCache() {
	SetSpectrumCacheLimit(0)
	SetSpectrumCacheLimit(DefaultSpectrumCacheLimit)
	specCache.mu.Lock()
	specCache.maxSymN = 0
	specCache.mu.Unlock()
}

// TestSymbolSubsampleBitwise pins the invariant the cross-resolution
// transfer rests on: the half-spectrum frequencies of size n are exactly the
// even frequencies of size 2n, bitwise — so a table subsampled from a larger
// donor is indistinguishable from one evaluated fresh.
func TestSymbolSubsampleBitwise(t *testing.T) {
	s := Stencil{MinOff: -1, W: []float64{0.27, 0.5, 0.22}}
	for _, n := range []int{4, 64, 1024} {
		big := computeSymbol(s, s.MinOff, 4*n, fft.RPlanFor(4*n))
		fresh := computeSymbol(s, s.MinOff, n, fft.RPlanFor(n))
		sub := subsampleSymbol(big, 4*n, n)
		for f := range fresh {
			if sub[f] != fresh[f] {
				t.Fatalf("n=%d f=%d: subsampled %v != fresh %v", n, f, sub[f], fresh[f])
			}
		}
		seeded := seedSymbol(fresh, n, s, s.MinOff, 4*n, fft.RPlanFor(4*n))
		for f := range big {
			if seeded[f] != big[f] {
				t.Fatalf("n=%d f=%d: seeded %v != fresh %v", 4*n, f, seeded[f], big[f])
			}
		}
	}
}

// TestSymbolCacheCrossResolution drives the cache through both transfer
// directions end to end: an evolution at one padded size must derive its
// symbol tables from tables cached at other sizes rather than re-evaluating,
// and the results must stay on the naive oracle.
func TestSymbolCacheCrossResolution(t *testing.T) {
	resetSpecCache()
	rng := rand.New(rand.NewSource(35))
	s := Stencil{MinOff: 0, W: []float64{0.46, 0.53}}

	h0, m0, x0 := SymbolCacheStats()
	bigRow := randRow(rng, 8192)
	want, _ := EvolveConeNaive(bigRow, s, 512)
	got, _ := EvolveCone(bigRow, s, 512)
	if d := maxDiff(got, want); d > 1e-9 {
		t.Fatalf("big evolution off naive by %g", d)
	}
	_, m1, _ := SymbolCacheStats()
	if m1 == m0 {
		t.Fatal("big evolution built no symbol tables")
	}

	// A smaller padded size of the same stencil must subsample the cached
	// table (cross-res), not evaluate from scratch.
	smallRow := randRow(rng, 4096)
	want, _ = EvolveConeNaive(smallRow, s, 256)
	got, _ = EvolveCone(smallRow, s, 256)
	if d := maxDiff(got, want); d > 1e-9 {
		t.Fatalf("small evolution off naive by %g", d)
	}
	_, _, x1 := SymbolCacheStats()
	if x1 == x0 {
		t.Error("smaller-size evolution did not subsample from the cached larger table")
	}

	// And a larger padded size must seed from below.
	hugeRow := randRow(rng, 16384)
	want, _ = EvolveConeNaive(hugeRow, s, 128)
	got, _ = EvolveCone(hugeRow, s, 128)
	if d := maxDiff(got, want); d > 1e-9 {
		t.Fatalf("huge evolution off naive by %g", d)
	}
	_, _, x2 := SymbolCacheStats()
	if x2 == x1 {
		t.Error("larger-size evolution did not seed from the cached smaller table")
	}

	// Repeating a size is an exact-table hit, not another transfer.
	h1, m2, _ := SymbolCacheStats()
	EvolveCone(smallRow, s, 256)
	h2, m3, x3 := SymbolCacheStats()
	if m3 != m2 || x3 != x2 {
		t.Errorf("repeat evolution rebuilt symbol tables (misses %d->%d, crossRes %d->%d)", m2, m3, x2, x3)
	}
	_, _ = h0, h1
	if h2 < h1 {
		t.Errorf("symbol hits went backwards: %d -> %d", h1, h2)
	}
}

// TestSymbolCachePoweredParity checks that a multiplier derived through the
// symbol layer (possibly via a cross-resolution transfer) matches the
// from-scratch computeSpectrum reference bitwise.
func TestSymbolCachePoweredParity(t *testing.T) {
	resetSpecCache()
	s := Stencil{MinOff: -2, W: []float64{0.1, 0.2, 0.3, 0.2, 0.15}}
	// Populate a large table first so the small size below transfers.
	kernelSpectrum(s, s.MinOff, 512, 3, fft.RPlanFor(512))
	for _, nk := range [][2]int{{64, 3}, {64, 17}, {2048, 9}} {
		n, k := nk[0], nk[1]
		got := kernelSpectrum(s, s.MinOff, n, k, fft.RPlanFor(n))
		want := computeSpectrum(s, s.MinOff, n, k, fft.RPlanFor(n))
		for f := range want {
			if got[f] != want[f] {
				t.Fatalf("n=%d k=%d f=%d: cached %v != reference %v", n, k, f, got[f], want[f])
			}
		}
	}
}
