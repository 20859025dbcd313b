//go:build !race

package par

import "testing"

// TestDoSteadyStateAllocs pins the pooled join: a warm two-function Do
// whose offer no token starts, so its caller runs it inline, allocates
// nothing. The budget's one token is held for the test, so the offer
// cannot start. Excluded under the race detector, whose sync.Pool drops
// Puts on purpose.
func TestDoSteadyStateAllocs(t *testing.T) {
	defer SetWorkers(SetWorkers(2))
	if got := TryAcquire(1); got != 1 {
		t.Fatalf("took %d of the budget's one token", got)
	}
	defer Release(1)
	var a, b int
	fns := [2]func(){func() { a++ }, func() { b++ }}
	do := func() { Do(fns[:]...) }
	do()
	if n := testing.AllocsPerRun(100, do); n != 0 {
		t.Errorf("%v allocs per warm two-function Do, want 0", n)
	}
	if a != 102 || b != 102 {
		t.Errorf("ran the functions %d and %d times, want 102", a, b)
	}
}
