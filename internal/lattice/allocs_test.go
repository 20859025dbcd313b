//go:build !race

package lattice_test

import (
	"runtime"
	"testing"

	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/bsm"
	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/lattice"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/scratch"
	"github.com/nlstencil/amop/internal/topm"
)

// TestFastSolveSteadyStateAllocs pins the solve workspace's claim: after a
// warm-up, a T=4096 fast solve of the binomial and trinomial American call
// (the put of the swapped contract, as PriceFast solves it) and of the BSM
// American put at one worker allocates nothing. The problem is built once,
// outside the measured solves. Excluded under the race detector, whose
// sync.Pool drops Puts on purpose. GOMAXPROCS is pinned to 1 before the
// warm-up, as AllocsPerRun pins it, so the pools' per-P state survives into
// the measured runs.
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
	bs, err := bsm.New(option.Default(), T, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    *lattice.Model
		kind option.Kind
	}{{"bopm-call", b, option.Call}, {"topm-call", tm, option.Call}, {"bsm-put", bs.Model, option.Put}} {
		put := c.m
		if c.kind == option.Call {
			if put, err = lattice.Swap(c.m); err != nil {
				t.Fatal(err)
			}
		}
		tab := lattice.ExerciseTable(put)
		prob := lattice.PutProblem(put, tab)
		want, err := c.m.FastTop(c.kind, nil, nil)
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
