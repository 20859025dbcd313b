package serve

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestQuantizerBuckets(t *testing.T) {
	q := Quantizer{SpotBucket: 0.25, VolBucket: 0.01, RateBucket: 0.0005}

	// Moves inside a cell keep the key; crossing a cell edge changes it.
	a := q.Key(101.30, 0.2101, 0.00163)
	b := q.Key(101.40, 0.2149, 0.00171)
	if a != b {
		t.Errorf("within-bucket move changed the key: %+v vs %+v", a, b)
	}
	c := q.Key(101.60, 0.2101, 0.00163)
	if a == c {
		t.Errorf("cross-bucket spot move kept the key: %+v", a)
	}

	// A tick landing exactly on a bucket boundary belongs to the cell above:
	// cell k covers [k*b, (k+1)*b). 101.25/0.25 and 101.50/0.25 are exact in
	// binary floating point, so the semantics are testable bit-for-bit.
	lo, edge := q.Key(101.26, 0.21, 0), q.Key(101.50, 0.21, 0)
	if lo == edge {
		t.Errorf("boundary tick did not move to the next cell: %+v", lo)
	}
	if onEdge := q.Key(101.25, 0.21, 0); onEdge != lo {
		t.Errorf("boundary input not in the cell it opens: %+v vs %+v", onEdge, lo)
	}

	// The representative is the cell center, shared by everything in the cell.
	s1, v1, r1 := q.Rep(101.30, 0.2101, 0.00163)
	s2, _, _ := q.Rep(101.49, 0.2101, 0.00163)
	if s1 != s2 || s1 != 101.375 {
		t.Errorf("cell representative: got %v and %v, want 101.375", s1, s2)
	}
	if v1 != 0.215 {
		t.Errorf("vol representative: got %v, want 0.215", v1)
	}
	if r1 != 0.00175 {
		t.Errorf("rate representative: got %v, want 0.00175", r1)
	}
}

func TestQuantizerZeroBucketIsExact(t *testing.T) {
	var q Quantizer // all axes unquantized
	if q.Key(100, 0.2, 0.01) == q.Key(100.0000001, 0.2, 0.01) {
		t.Error("zero bucket should key on the exact bits")
	}
	if q.Key(100, 0.2, 0.01) != q.Key(100, 0.2, 0.01) {
		t.Error("zero-bucket key not deterministic")
	}
	s, v, r := q.Rep(100, 0.2, 0.01)
	if s != 100 || v != 0.2 || r != 0.01 {
		t.Errorf("zero-bucket representative must be the input: got %v %v %v", s, v, r)
	}
}

// curWaiters reads the in-flight call's waiter count (-1 when idle).
func curWaiters(c *Coalescer) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return -1
	}
	return c.cur.waiters
}

func TestCoalescerJoins(t *testing.T) {
	var c Coalescer
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var runs atomic.Int64

	go c.Do(func() error {
		runs.Add(1)
		close(inFlight)
		<-release
		return nil
	})
	<-inFlight

	const joiners = 4
	var wg sync.WaitGroup
	joinCount := atomic.Int64{}
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			joined, err := c.Do(func() error { runs.Add(1); return nil })
			if err != nil {
				t.Errorf("joiner: %v", err)
			}
			if joined {
				joinCount.Add(1)
			}
		}()
	}
	// Joiners block on the in-flight call; release it once they are queued.
	// (They may also arrive after the release and lead their own flight —
	// the assertion below only needs at least one to have joined, which the
	// barrier guarantees for the ones queued before release.)
	for curWaiters(&c) != joiners {
	}
	close(release)
	wg.Wait()
	if joinCount.Load() != joiners {
		t.Errorf("joined %d of %d queued callers", joinCount.Load(), joiners)
	}
	if runs.Load() != 1 {
		t.Errorf("refresh ran %d times, want 1", runs.Load())
	}
}

func TestCoalescerError(t *testing.T) {
	var c Coalescer
	want := errors.New("boom")
	joined, err := c.Do(func() error { return want })
	if joined || !errors.Is(err, want) {
		t.Errorf("leader: joined=%v err=%v", joined, err)
	}
	// The flight is over; the next caller leads a fresh one.
	joined, err = c.Do(func() error { return nil })
	if joined || err != nil {
		t.Errorf("after error: joined=%v err=%v", joined, err)
	}
}

func TestCoalescerPanicDoesNotWedge(t *testing.T) {
	var c Coalescer
	joined, err := c.Do(func() error { panic("boom") })
	if joined {
		t.Error("leader reported as joiner")
	}
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panicking refresh: got err %v, want a panicked error", err)
	}
	// The flight must be fully torn down: the next caller leads normally.
	joined, err = c.Do(func() error { return nil })
	if joined || err != nil {
		t.Errorf("after panic: joined=%v err=%v", joined, err)
	}
}

func TestCoalescerBackpressure(t *testing.T) {
	c := Coalescer{MaxWaiters: 1}
	inFlight := make(chan struct{})
	release := make(chan struct{})
	go c.Do(func() error {
		close(inFlight)
		<-release
		return nil
	})
	<-inFlight

	joinerQueued := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(joinerQueued)
		_, err := c.Do(func() error { return nil })
		done <- err
	}()
	<-joinerQueued
	for curWaiters(&c) != 1 {
	}
	// The queue is full: the next caller is shed immediately, not blocked.
	if _, err := c.Do(func() error { return nil }); !errors.Is(err, ErrOverloaded) {
		t.Errorf("over-limit caller: got %v, want ErrOverloaded", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Errorf("queued joiner: %v", err)
	}
}

func TestCountersAccumulate(t *testing.T) {
	before := ReadStats()
	TickReprices.Add(2)
	TickSkips.Add(3)
	CoalescedRequests.Add(5)
	StaleServes.Add(7)
	CacheServes.Add(11)
	after := ReadStats()
	deltas := []struct {
		name string
		d    int64
		want int64
	}{
		{"TickReprices", after.TickReprices - before.TickReprices, 2},
		{"TickSkips", after.TickSkips - before.TickSkips, 3},
		{"CoalescedRequests", after.CoalescedRequests - before.CoalescedRequests, 5},
		{"StaleServes", after.StaleServes - before.StaleServes, 7},
		{"CacheServes", after.CacheServes - before.CacheServes, 11},
	}
	for _, d := range deltas {
		if d.d != d.want {
			t.Errorf("%s advanced by %d, want %d", d.name, d.d, d.want)
		}
	}
}
