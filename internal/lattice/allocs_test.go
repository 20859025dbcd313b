//go:build !race

package lattice_test

import (
	"runtime"
	"testing"

	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/lattice"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/scratch"
	"github.com/nlstencil/amop/internal/topm"
)

// TestFastSolveSteadyStateAllocs pins the solve workspace's claim: after a
// warm-up, a T=4096 fast solve of the binomial and trinomial American call
// (the put of the swapped contract, as PriceFast solves it) at one worker
// allocates nothing. The problem is built once, outside the measured
// solves; internal/bsm pins the BSM put the same way. Excluded under the
// race detector, whose sync.Pool drops Puts on purpose. GOMAXPROCS is
// pinned to 1 before the warm-up, as AllocsPerRun pins it, so the pools'
// per-P state survives into the measured runs.
func TestFastSolveSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer par.SetWorkers(par.SetWorkers(1))
	const T = 4096
	b, err := bopm.New(option.Default(), T)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := topm.New(option.Default(), T)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    *lattice.Model
	}{{"bopm-call", b}, {"topm-call", tm}} {
		sw, err := lattice.Swap(c.m)
		if err != nil {
			t.Fatal(err)
		}
		tab := lattice.ExerciseTable(sw)
		prob := lattice.PutProblem(sw, tab)
		want, err := c.m.PriceFast()
		if err != nil {
			t.Fatal(err)
		}
		solve := func() {
			if v, _, err := fbstencil.SolveGreenLeftOneSided(prob, nil); err != nil || v != want {
				t.Fatalf("%s: solve %v (%v), want %v", c.name, v, err, want)
			}
		}
		solve()
		if a := testing.AllocsPerRun(10, solve); a != 0 {
			t.Errorf("%s T=%d: %v allocs per warm fast solve, want 0", c.name, T, a)
		}
		scratch.PutFloats(tab)
	}
}
