//go:build !race

package bsm

import (
	"runtime"
	"testing"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/scratch"
)

// TestFastSolveSteadyStateAllocs pins the solve workspace's claim for the
// BSM American put, as internal/lattice's test of the same name does for
// the lattice calls: after a warm-up, a T=4096 fast solve at one worker
// allocates nothing. The problem is built once, outside the measured
// solves. Excluded under the race detector, whose sync.Pool drops Puts on
// purpose.
func TestFastSolveSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer par.SetWorkers(par.SetWorkers(1))
	const T = 4096
	m, err := New(option.Default(), T, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := m.greenTable(scratch.Floats(2*T + 1))
	defer scratch.PutFloats(tab)
	prob := m.problem(tab)
	want, err := m.PriceFast()
	if err != nil {
		t.Fatal(err)
	}
	solve := func() {
		if v, _, err := fbstencil.SolveGreenLeftOneSided(prob, nil); err != nil || m.Prm.K*v != want {
			t.Fatalf("solve %v (%v), want %v", m.Prm.K*v, err, want)
		}
	}
	solve()
	if a := testing.AllocsPerRun(10, solve); a != 0 {
		t.Errorf("bsm-put T=%d: %v allocs per warm fast solve, want 0", T, a)
	}
}
