//go:build !race

package sweep

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/nlstencil/amop/internal/scratch"
)

// TestSweepAllocs: warm Naive and Recursive sweeps return every pooled buffer
// (no scratch misses) and allocate a small constant number of times, not once
// per row or base block. Excluded under the race detector, whose sync.Pool
// drops Puts on purpose. GOMAXPROCS is pinned to 1 before the warm-up run,
// as AllocsPerRun pins it, so the per-P magazines survive into the measured
// runs.
func TestSweepAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := randProblem(rand.New(rand.NewSource(7)), 1, 1000)
	for _, c := range []struct {
		name string
		run  func(*Problem) float64
	}{{"Naive", Naive}, {"Recursive", Recursive}} {
		c.run(p)
		misses := scratch.Misses()
		allocs := testing.AllocsPerRun(10, func() { c.run(p) })
		if d := scratch.Misses() - misses; d != 0 {
			t.Errorf("%s: %d scratch misses over 11 warm runs, want 0", c.name, d)
		}
		if allocs > 2 {
			t.Errorf("%s: %v allocs per run, want at most 2", c.name, allocs)
		}
	}
}
