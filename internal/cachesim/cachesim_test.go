package cachesim

import (
	"testing"
	"testing/quick"
)

func TestNewCacheValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"bad line":      {Size: 1024, Ways: 2, LineSize: 48},
		"zero ways":     {Size: 1024, Ways: 0, LineSize: 64},
		"indivisible":   {Size: 1000, Ways: 2, LineSize: 64},
		"non-pow2 sets": {Size: 3 * 64 * 2, Ways: 2, LineSize: 64},
	} {
		if _, err := NewCache(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := NewCache(Config{Size: 32 << 10, Ways: 8, LineSize: 64}); err != nil {
		t.Errorf("SKX L1 config rejected: %v", err)
	}
}

func TestColdMissesThenHits(t *testing.T) {
	c, err := NewCache(Config{Size: 1024, Ways: 2, LineSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Touch 8 distinct lines: all cold misses.
	for i := 0; i < 8; i++ {
		if c.access(uint64(i * 64)) {
			t.Errorf("line %d: unexpected hit on cold cache", i)
		}
	}
	// Re-touch: all hits (8 sets x 2 ways = 16 lines capacity).
	for i := 0; i < 8; i++ {
		if !c.access(uint64(i * 64)) {
			t.Errorf("line %d: unexpected miss on warm cache", i)
		}
	}
	if c.Hits != 8 || c.Misses != 8 {
		t.Errorf("hits=%d misses=%d, want 8/8", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// One set (2 ways): lines mapping to the same set evict in LRU order.
	c, err := NewCache(Config{Size: 128, Ways: 2, LineSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := uint64(0), uint64(64), uint64(128) // all set 0 (1 set total)
	c.access(a)                                   // miss
	c.access(b)                                   // miss
	c.access(a)                                   // hit, a is MRU
	c.access(d)                                   // miss, evicts b (LRU)
	if !c.access(a) {
		t.Error("a should still be resident")
	}
	if c.access(b) {
		t.Error("b should have been evicted")
	}
}

func TestSameLineHits(t *testing.T) {
	c, _ := NewCache(Config{Size: 1024, Ways: 2, LineSize: 64})
	c.access(0)
	for off := uint64(8); off < 64; off += 8 {
		if !c.access(off) {
			t.Errorf("offset %d: same-line access missed", off)
		}
	}
}

func TestHierarchyInclusionFlow(t *testing.T) {
	h := NewSKX()
	// Stream 1 MB of float64 (128K elements): every line misses L1 once.
	const n = 128 << 10
	base := h.Alloc(8 * n)
	for i := uint64(0); i < n; i++ {
		h.Access(base + 8*i)
	}
	s := h.Snapshot()
	wantLines := uint64(n * 8 / 64)
	if s.L1Misses != wantLines {
		t.Errorf("L1 misses %d, want %d (one per line)", s.L1Misses, wantLines)
	}
	if s.L2Misses != wantLines {
		t.Errorf("L2 misses %d, want %d cold misses", s.L2Misses, wantLines)
	}
	// Second sequential pass: 1 MB fits in L2, so L2 hits; L1 (32 KB) misses.
	for i := uint64(0); i < n; i++ {
		h.Access(base + 8*i)
	}
	s2 := h.Snapshot()
	if s2.L2Misses != wantLines {
		t.Errorf("re-stream caused %d extra L2 misses; data should fit in L2", s2.L2Misses-wantLines)
	}
	if s2.L1Misses != 2*wantLines {
		t.Errorf("L1 misses %d, want %d (stream twice)", s2.L1Misses, 2*wantLines)
	}
}

func TestSmallWorkingSetStaysInL1(t *testing.T) {
	h := NewSKX()
	const n = 1024 // 8 KB of float64
	base := h.Alloc(8 * n)
	for pass := 0; pass < 10; pass++ {
		for i := uint64(0); i < n; i++ {
			h.Access(base + 8*i)
		}
	}
	s := h.Snapshot()
	if s.L1Misses != 128 { // 8 KB / 64 B cold misses only
		t.Errorf("L1 misses %d, want 128 cold misses only", s.L1Misses)
	}
}

// TestHitsPlusMissesEqualsAccesses (property): conservation of accesses.
func TestHitsPlusMissesEqualsAccesses(t *testing.T) {
	prop := func(addrs []uint16) bool {
		c, _ := NewCache(Config{Size: 512, Ways: 2, LineSize: 64})
		for _, a := range addrs {
			c.access(uint64(a))
		}
		return c.Hits+c.Misses == uint64(len(addrs))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTracedSlicesStoreValues(t *testing.T) {
	h := NewSKX()
	h.AddFlops(7)
	if h.Snapshot().Flops != 7 {
		t.Error("flop counter")
	}
}
