// Package gencache holds the one eviction rule of the process-wide caches
// (linstencil's kernel spectra, lattice's exercise ladders): a byte-bounded
// map kept in two generations.
//
// New entries go into the young generation. A hit in the old generation
// promotes the entry to the young one. When an entry would take the young
// generation past half the limit, the old generation is dropped whole and
// the young one becomes old (a turn). Each generation holds at most half the
// limit, so the cache never holds more than the limit; a hit in the young
// generation writes nothing, and an entry nobody asks for again is gone
// after two turns.
package gencache

// Cache is a two-generation byte-bounded map. It is not safe for
// concurrent use: its owner serializes the calls.
type Cache[K comparable, V any] struct {
	young, old map[K]item[V]
	yb, ob     int64 // bytes of young and old
	limit      int64
	turns      uint64
	drop       func(K, V)
}

type item[V any] struct {
	v     V
	bytes int64
}

// New returns an empty cache bounded at limit bytes. A non-positive limit
// keeps nothing. drop, when not nil, is called on every entry a turn drops.
func New[K comparable, V any](limit int64, drop func(K, V)) *Cache[K, V] {
	return &Cache[K, V]{young: make(map[K]item[V]), old: make(map[K]item[V]), limit: limit, drop: drop}
}

// Get returns k's value, promoting it to the young generation when the old
// one holds it.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	if it, ok := c.young[k]; ok {
		return it.v, true
	}
	it, ok := c.old[k]
	if ok {
		delete(c.old, k)
		c.ob -= it.bytes
		c.insert(k, it)
	}
	return it.v, ok
}

// Put stores v under k, charged at bytes, in the young generation,
// replacing what k held, and reports whether the cache keeps it: an entry
// larger than half the limit is not kept.
func (c *Cache[K, V]) Put(k K, v V, bytes int64) bool {
	if it, ok := c.young[k]; ok {
		delete(c.young, k)
		c.yb -= it.bytes
	} else if it, ok := c.old[k]; ok {
		delete(c.old, k)
		c.ob -= it.bytes
	}
	if c.limit <= 0 || bytes > c.limit/2 {
		return false
	}
	c.insert(k, item[V]{v, bytes})
	return true
}

// insert adds it to the young generation, turning first if it would not
// fit.
func (c *Cache[K, V]) insert(k K, it item[V]) {
	if c.yb+it.bytes > c.limit/2 {
		c.turn()
	}
	c.young[k] = it
	c.yb += it.bytes
}

// turn drops the old generation and makes the young one old.
func (c *Cache[K, V]) turn() {
	if c.drop != nil {
		for k, it := range c.old {
			c.drop(k, it.v)
		}
	}
	clear(c.old)
	c.old, c.young = c.young, c.old
	c.ob, c.yb = c.yb, 0
	c.turns++
}

// SetLimit rebounds the cache at limit bytes, dropping what no longer
// fits: everything when limit is non-positive.
func (c *Cache[K, V]) SetLimit(limit int64) {
	c.limit = limit
	if c.yb > limit/2 || limit <= 0 {
		c.turn()
	}
	if c.ob > limit/2 || limit <= 0 {
		c.turn()
	}
}

// Turns reports how many turns the cache has made: an entry found or put
// since the last one is young until the count moves.
func (c *Cache[K, V]) Turns() uint64 { return c.turns }

// Bytes reports the bytes the cache holds.
func (c *Cache[K, V]) Bytes() int64 { return c.yb + c.ob }

// Len reports the number of entries the cache holds.
func (c *Cache[K, V]) Len() int { return len(c.young) + len(c.old) }

// Each calls f on every entry, young first.
func (c *Cache[K, V]) Each(f func(k K, v V, bytes int64)) {
	for k, it := range c.young {
		f(k, it.v, it.bytes)
	}
	for k, it := range c.old {
		f(k, it.v, it.bytes)
	}
}
