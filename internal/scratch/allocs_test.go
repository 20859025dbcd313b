//go:build !race

package scratch

import "testing"

// TestRoundTripAllocs: a warm round trip allocates nothing in either tier.
// Excluded under the race detector, whose sync.Pool drops Puts on purpose.
// AllocsPerRun pins GOMAXPROCS to 1, so the magazine stays on one P.
func TestRoundTripAllocs(t *testing.T) {
	for _, n := range []int{64, 1 << 18} {
		if a := testing.AllocsPerRun(100, func() { PutFloats(Floats(n)) }); a != 0 {
			t.Errorf("Floats(%d)/PutFloats round trip: %v allocs, want 0", n, a)
		}
	}
}
