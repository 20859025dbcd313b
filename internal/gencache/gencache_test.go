package gencache

import "testing"

// check asserts the cache's byte count against its entries and the bound.
func check[K comparable, V any](t *testing.T, c *Cache[K, V]) {
	t.Helper()
	var yb, ob int64
	for _, it := range c.young {
		yb += it.bytes
	}
	for _, it := range c.old {
		ob += it.bytes
	}
	if yb != c.yb || ob != c.ob {
		t.Fatalf("counts young %d old %d bytes, entries hold %d and %d", c.yb, c.ob, yb, ob)
	}
	if c.Bytes() > max(c.limit, 0) {
		t.Fatalf("holds %d bytes over the limit %d", c.Bytes(), c.limit)
	}
	for k := range c.young {
		if _, ok := c.old[k]; ok {
			t.Fatalf("key %v in both generations", k)
		}
	}
}

func TestTurnDropsOldWhole(t *testing.T) {
	c := New[int, string](100, nil)
	for k := range 5 {
		c.Put(k, "v", 10) // young: 0..4, 50 bytes
	}
	check(t, c)
	c.Put(5, "v", 10) // young full: turn, old 0..4
	if len(c.old) != 5 || len(c.young) != 1 {
		t.Fatalf("after one turn: old %d, young %d entries", len(c.old), len(c.young))
	}
	for k := 6; k < 11; k++ {
		c.Put(k, "v", 10) // the second turn drops 0..4
	}
	check(t, c)
	for k := range 5 {
		if _, ok := c.Get(k); ok {
			t.Fatalf("key %d survived two turns", k)
		}
	}
	if c.Len() != 6 || c.Bytes() != 60 {
		t.Fatalf("holds %d entries, %d bytes; want 6, 60", c.Len(), c.Bytes())
	}
}

func TestPromotedEntrySurvivesOneTurn(t *testing.T) {
	c := New[int, int](100, nil)
	for k := range 6 {
		c.Put(k, k, 10) // turn at 5: old 0..4
	}
	if v, ok := c.Get(2); !ok || v != 2 {
		t.Fatalf("Get(2) = %d, %v", v, ok)
	}
	if _, ok := c.young[2]; !ok {
		t.Fatal("a hit in old did not promote the entry")
	}
	check(t, c)
	for k := 6; k < 9; k++ {
		c.Put(k, k, 10) // young 5, 2, 6..8: 50 bytes, so the next Put turns
	}
	c.Put(9, 9, 10)
	check(t, c)
	if _, ok := c.old[2]; !ok {
		t.Fatal("the promoted entry did not survive one turn")
	}
	for _, k := range []int{0, 1, 3, 4} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("unpromoted key %d survived two turns", k)
		}
	}
}

func TestBytesNeverExceedLimit(t *testing.T) {
	c := New[int, int](1000, nil)
	for i := range 500 {
		size := int64(1 + (i*37)%300)
		c.Put(i%97, i, size)
		if i%3 == 0 {
			c.Get((i * 7) % 97)
		}
		check(t, c)
	}
	if c.Put(1000, 0, 501) { // over half the limit: not kept
		t.Fatal("Put reports keeping an entry larger than half the limit")
	}
	if _, ok := c.Get(1000); ok {
		t.Fatal("kept an entry larger than half the limit")
	}
	if !c.Put(1001, 0, 500) {
		t.Fatal("Put reports dropping an entry of exactly half the limit")
	}
	if _, ok := c.Get(1001); !ok {
		t.Fatal("dropped an entry of exactly half the limit")
	}
	check(t, c)
}

func TestPutReplacesCharge(t *testing.T) {
	c := New[string, int](100, nil)
	c.Put("a", 1, 10)
	c.Put("a", 2, 30)
	if v, _ := c.Get("a"); v != 2 || c.Bytes() != 30 || c.Len() != 1 {
		t.Fatalf("after re-Put: value %d, %d bytes, %d entries", v, c.Bytes(), c.Len())
	}
	c.Put("b", 3, 25) // 55 > 50: turn, "a" old
	c.Put("a", 4, 40) // "a" leaves old and turns young ("b") old
	check(t, c)
	if v, ok := c.young["a"]; !ok || v.v != 4 || c.Bytes() != 65 {
		t.Fatalf("re-Put from old: %+v %v, %d bytes", v, ok, c.Bytes())
	}
}

func TestSetLimit(t *testing.T) {
	c := New[int, int](100, nil)
	for k := range 8 {
		c.Put(k, k, 10)
	}
	c.SetLimit(60) // young (5..7, 30 bytes) fits 30, old (0..4, 50) does not
	check(t, c)
	if c.Len() != 3 || c.Bytes() != 30 {
		t.Fatalf("after SetLimit(60): %d entries, %d bytes", c.Len(), c.Bytes())
	}
	for _, limit := range []int64{0, -1} {
		c.SetLimit(100)
		c.Put(1, 1, 0)
		c.Put(2, 2, 10)
		c.SetLimit(limit)
		if c.Len() != 0 || c.Bytes() != 0 {
			t.Fatalf("SetLimit(%d) kept %d entries, %d bytes", limit, c.Len(), c.Bytes())
		}
		c.Put(3, 3, 0)
		if c.Len() != 0 {
			t.Fatalf("limit %d kept a Put", limit)
		}
	}
}

// TestDropHookSeesEveryDroppedEntry checks that the hook hears of each
// entry a turn or SetLimit drops, once, and of no entry the cache keeps,
// and that Turns counts the turns.
func TestDropHookSeesEveryDroppedEntry(t *testing.T) {
	dropped := map[int]int{}
	c := New[int, int](100, func(k, v int) {
		if k != v {
			t.Errorf("dropped key %d with value %d", k, v)
		}
		dropped[k]++
	})
	for k := range 11 {
		c.Put(k, k, 10) // turns at 5 and 10: 0..4 dropped
	}
	if c.Turns() != 2 {
		t.Errorf("%d turns, want 2", c.Turns())
	}
	c.Get(5) // promoted: survives the next turns of SetLimit
	for k := range 11 {
		_, young := c.young[k]
		_, old := c.old[k]
		ok := young || old
		if want := map[bool]int{true: 0, false: 1}[ok]; dropped[k] != want {
			t.Errorf("key %d: cached %v, dropped %d times", k, ok, dropped[k])
		}
	}
	c.SetLimit(0)
	for k := range 11 {
		if dropped[k] != 1 {
			t.Errorf("key %d dropped %d times after SetLimit(0), want once", k, dropped[k])
		}
	}
	if c.Len() != 0 || c.Turns() != 4 {
		t.Errorf("after SetLimit(0): %d entries, %d turns", c.Len(), c.Turns())
	}
}
