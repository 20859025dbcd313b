package scratch

import (
	"fmt"
	"sync"
	"testing"
)

func TestClassRounding(t *testing.T) {
	cases := map[int]int{
		1:               minClass,
		31:              minClass,
		32:              minClass,
		33:              6,
		64:              6,
		65:              7,
		1 << maxClass:   maxClass,
		1<<maxClass + 1: -1,
		0:               -1,
		-4:              -1,
	}
	for n, want := range cases {
		if got := class(n); got != want {
			t.Errorf("class(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFloatsLenCap(t *testing.T) {
	for _, n := range []int{1, 5, 32, 33, 100, 4096, 4097} {
		b := Floats(n)
		if len(b) != n {
			t.Fatalf("Floats(%d): len %d", n, len(b))
		}
		if c := cap(b); c&(c-1) != 0 {
			t.Fatalf("Floats(%d): cap %d not a power of two", n, c)
		}
		PutFloats(b)
	}
}

// firstFreelistClass is the smallest class of ps kept in the mutex freelist
// tier rather than in magazines.
func firstFreelistClass[T any](ps *pools[T]) int {
	c := minClass
	for ps.magazined(c) {
		c++
	}
	return c
}

// reuses counts, over rounds Put-then-get round trips, how often get handed
// back the buffer just put.
func reuses[T any](get func(int) []T, put func([]T), n, rounds int) int {
	hits := 0
	b := get(n)
	for i := 0; i < rounds; i++ {
		put(b)
		next := get(n)
		if &next[0] == &b[0] {
			hits++
		}
		b = next
	}
	put(b)
	return hits
}

func TestRecycleRoundTrip(t *testing.T) {
	// Freelist tier: LIFO under a mutex, so reuse is deterministic.
	n := 1<<firstFreelistClass(&floatPools) - 100
	b := Floats(n)
	b[0], b[n-1] = 1, 2
	PutFloats(b)
	c := Floats(n - 50)
	if cap(c) != cap(b) || &c[0] != &b[0] {
		t.Error("Floats did not reuse the pooled freelist buffer")
	}
	PutFloats(c)

	// Magazine tier: sync.Pool may drop a magazine (the race detector drops
	// about one Put in four on purpose) or strand it on another P, so only
	// require that most round trips reuse.
	const rounds = 200
	if got := reuses(Floats, PutFloats, 1000, rounds); got < rounds/2 {
		t.Errorf("Floats(1000) reused %d of %d round trips", got, rounds)
	}
}

// TestIdleBound: the freelist tier never retains more than retain(c)
// buffers, and a magazine never more than magazineCap, with every slot past
// its count cleared so it pins no buffer it has handed out.
func TestIdleBound(t *testing.T) {
	c := firstFreelistClass(&floatPools)
	r := retain(c, 8)
	bufs := make([][]float64, 2*r)
	for i := range bufs {
		bufs[i] = Floats(1 << c)
	}
	for _, b := range bufs {
		PutFloats(b)
	}
	p := &floatPools.class[c]
	p.mu.Lock()
	held := len(p.free)
	p.free = nil // leave the class empty for later tests
	p.mu.Unlock()
	if held != r {
		t.Errorf("freelist class %d holds %d buffers after %d puts, want retain = %d", c, held, 2*r, r)
	}

	const small = 6
	bufs = make([][]float64, 3*magazineCap)
	for i := range bufs {
		bufs[i] = make([]float64, 1<<small)
	}
	for _, b := range bufs {
		PutFloats(b)
	}
	for i := 0; i < magazineCap/2; i++ {
		Floats(1 << small)
	}
	mags := &floatPools.class[small].mags
	for m, _ := mags.Get().(*magazine[float64]); m != nil; m, _ = mags.Get().(*magazine[float64]) {
		if m.n > magazineCap {
			t.Fatalf("magazine count %d over capacity %d", m.n, magazineCap)
		}
		for i, b := range m.bufs {
			if (i < m.n) != (b != nil) {
				t.Errorf("magazine slot %d (count %d) holds %v", i, m.n, b != nil)
			}
		}
	}
}

func TestMissesCountsAllocations(t *testing.T) {
	c := firstFreelistClass(&floatPools)
	p := &floatPools.class[c]
	p.mu.Lock()
	p.free = nil
	p.mu.Unlock()

	before := Misses()
	b := Floats(1 << c)
	if got := Misses() - before; got != 1 {
		t.Errorf("allocating Floats counted %d misses, want 1", got)
	}
	PutFloats(b)
	PutFloats(Floats(1 << c))
	Floats(0)
	if got := Misses() - before; got != 1 {
		t.Errorf("pool hit or bypass counted a miss: %d misses, want 1", got)
	}
}

// TestPutRejectsForeign: non-power-of-two capacities (e.g. leafRow buffers
// allocated with plain make) must be silently dropped, not pooled.
func TestPutRejectsForeign(t *testing.T) {
	PutFloats(make([]float64, 100, 100))
	b := Floats(100)
	if cap(b) == 100 {
		t.Error("pool accepted a non-power-of-two buffer")
	}
	PutFloats(nil)
}

// TestFrontTrimmedPut: a pool buffer re-sliced from the front loses its
// power-of-two capacity and must be dropped rather than corrupting the pool.
func TestFrontTrimmedPut(t *testing.T) {
	b := Floats(64)
	PutFloats(b[3:])
	got := Floats(64)
	if len(got) != 64 {
		t.Fatalf("len %d after trimmed Put", len(got))
	}
	PutFloats(got)
}

func TestRetainBound(t *testing.T) {
	if got := retain(minClass, 8); got != maxClassBytes/(8<<minClass) {
		t.Errorf("retain(minClass) = %d", got)
	}
	// A class whose single buffer exceeds maxClassBytes must retain nothing.
	if got := retain(maxClass, 8); got != 0 {
		t.Errorf("retain(maxClass, 8) = %d, want 0", got)
	}
	// The largest retaining class sits exactly at the bound.
	if got := retain(22, 8); got != 1 {
		t.Errorf("retain(22, 8) = %d, want 1", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := 32 + (g*31+i*17)%2000
				f := Floats(n)
				for j := range f {
					f[j] = float64(g)
				}
				for j := range f {
					if f[j] != float64(g) {
						t.Errorf("buffer shared between goroutines")
						return
					}
				}
				PutFloats(f)
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkFloatsRecycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := Floats(4096)
		PutFloats(f)
	}
}

// BenchmarkFloatsRecycleParallel round-trips buffers from every P at once,
// the traffic pattern of parallel trapezoids and batch workers.
func BenchmarkFloatsRecycleParallel(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					PutFloats(Floats(n))
				}
			})
		})
	}
}
