// Package cachesim provides a software model of the memory hierarchy used to
// reproduce the paper's cache-miss experiments (Figure 7) without PAPI
// hardware counters. It implements set-associative LRU caches with the
// geometry of the paper's Stampede2 SKX node (Table 3): 32 KB 8-way L1 and
// 1 MB 16-way L2 with 64-byte lines.
//
// Package trace drives it: every column replays, serially, the recorded
// schedule of the code that ships, the fast engine and the quadratic
// baselines of internal/sweep alike. The resulting miss
// counts reproduce the relative behavior the paper measures — the quadratic
// algorithms stream the whole grid every row while the FFT algorithm's
// working sets are logarithmically sized.
//
// The substitution for hardware counters is this model: the SKX geometry
// above, LRU replacement, and no prefetchers, speculation or other cores.
// Absolute counts therefore differ from hardware; only their shape and
// ratios carry over.
package cachesim

import "fmt"

// Config describes one cache level.
type Config struct {
	Size     int // bytes
	Ways     int
	LineSize int // bytes
}

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	cfg      Config
	sets     int
	lineBits uint
	setMask  uint64
	tags     []uint64 // sets x ways
	stamps   []uint64 // LRU clocks
	valid    []bool
	clock    uint64

	Hits   uint64
	Misses uint64
}

// NewCache builds a cache; Size must be a multiple of Ways*LineSize.
func NewCache(cfg Config) (*Cache, error) {
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		return nil, fmt.Errorf("cachesim: line size %d must be a positive power of two", cfg.LineSize)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cachesim: ways %d must be positive", cfg.Ways)
	}
	lines := cfg.Size / cfg.LineSize
	if lines <= 0 || lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cachesim: size %d not divisible into %d-way sets of %d-byte lines", cfg.Size, cfg.Ways, cfg.LineSize)
	}
	sets := lines / cfg.Ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cachesim: set count %d must be a power of two", sets)
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineSize {
		lineBits++
	}
	return &Cache{
		cfg: cfg, sets: sets, lineBits: lineBits, setMask: uint64(sets - 1),
		tags:   make([]uint64, sets*cfg.Ways),
		stamps: make([]uint64, sets*cfg.Ways),
		valid:  make([]bool, sets*cfg.Ways),
	}, nil
}

// access looks up the line containing addr, returning true on hit. On miss
// the line is filled, evicting the LRU way.
func (c *Cache) access(addr uint64) bool {
	line := addr >> c.lineBits
	set := int(line & c.setMask)
	base := set * c.cfg.Ways
	c.clock++
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			c.stamps[base+w] = c.clock
			c.Hits++
			return true
		}
	}
	c.Misses++
	victim := base
	for w := 1; w < c.cfg.Ways; w++ {
		if !c.valid[base+w] {
			victim = base + w
			break
		}
		if c.stamps[base+w] < c.stamps[victim] {
			victim = base + w
		}
	}
	c.tags[victim] = line
	c.stamps[victim] = c.clock
	c.valid[victim] = true
	return false
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.Hits, c.Misses, c.clock = 0, 0, 0
}

// Hierarchy is an inclusive two-level hierarchy plus operation counters and
// a bump allocator for the traced kernels' address space. It is not safe for
// concurrent use: traced kernels run serially by design.
type Hierarchy struct {
	L1, L2 *Cache
	// Flops counts floating-point operations reported by traced kernels.
	Flops uint64
	// next is the bump-allocation cursor (line-aligned).
	next uint64
}

// SKXConfig returns the paper's Table 3 cache geometry.
func SKXConfig() (l1, l2 Config) {
	return Config{Size: 32 << 10, Ways: 8, LineSize: 64},
		Config{Size: 1 << 20, Ways: 16, LineSize: 64}
}

// NewSKX builds a Hierarchy with the SKX geometry.
func NewSKX() *Hierarchy {
	l1c, l2c := SKXConfig()
	l1, err := NewCache(l1c)
	if err != nil {
		panic(err)
	}
	l2, err := NewCache(l2c)
	if err != nil {
		panic(err)
	}
	return &Hierarchy{L1: l1, L2: l2, next: 1 << 20} // skip the zero page
}

// Access simulates one load or store of a naturally aligned scalar at addr.
func (h *Hierarchy) Access(addr uint64) {
	if !h.L1.access(addr) {
		h.L2.access(addr)
	}
}

// AddFlops accrues floating-point work (for the energy model).
func (h *Hierarchy) AddFlops(n uint64) { h.Flops += n }

// Alloc reserves size bytes of simulated address space, line-aligned, and
// returns the base address. Allocations are never reused; traced kernels
// allocate like the real ones do.
func (h *Hierarchy) Alloc(size int) uint64 {
	const align = 64
	base := h.next
	h.next += (uint64(size) + align - 1) &^ (align - 1)
	return base
}

// Counters is a snapshot of the hierarchy's statistics.
type Counters struct {
	L1Hits, L1Misses uint64
	L2Hits, L2Misses uint64
	Flops            uint64
}

// Snapshot returns the current counters. L1 misses equal L2 accesses, as in
// the paper's Figure 7 caption.
func (h *Hierarchy) Snapshot() Counters {
	return Counters{
		L1Hits: h.L1.Hits, L1Misses: h.L1.Misses,
		L2Hits: h.L2.Hits, L2Misses: h.L2.Misses,
		Flops: h.Flops,
	}
}

// F64 is a traced []float64: every Get/Set replays one 8-byte access.
type F64 struct {
	h    *Hierarchy
	base uint64
	data []float64
}

// NewF64 allocates a traced float64 slice.
func (h *Hierarchy) NewF64(n int) F64 {
	return F64{h: h, base: h.Alloc(8 * n), data: make([]float64, n)}
}

// Len returns the slice length.
func (v F64) Len() int { return len(v.data) }

// Get loads element i.
func (v F64) Get(i int) float64 {
	v.h.Access(v.base + 8*uint64(i))
	return v.data[i]
}

// Set stores element i.
func (v F64) Set(i int, x float64) {
	v.h.Access(v.base + 8*uint64(i))
	v.data[i] = x
}

// Addr returns the simulated address of element i without accessing it.
func (v F64) Addr(i int) uint64 { return v.base + 8*uint64(i) }

// Slice returns a traced view of [lo, hi) sharing the same storage.
func (v F64) Slice(lo, hi int) F64 {
	return F64{h: v.h, base: v.base + 8*uint64(lo), data: v.data[lo:hi]}
}

// C128 is a traced []complex128 (16-byte elements).
type C128 struct {
	h    *Hierarchy
	base uint64
	data []complex128
}

// NewC128 allocates a traced complex128 slice.
func (h *Hierarchy) NewC128(n int) C128 {
	return C128{h: h, base: h.Alloc(16 * n), data: make([]complex128, n)}
}

// Len returns the slice length.
func (v C128) Len() int { return len(v.data) }

// Get loads element i.
func (v C128) Get(i int) complex128 {
	v.h.Access(v.base + 16*uint64(i))
	return v.data[i]
}

// Set stores element i.
func (v C128) Set(i int, x complex128) {
	v.h.Access(v.base + 16*uint64(i))
	v.data[i] = x
}
