//go:build !race

package bsm

import (
	"runtime"
	"testing"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/par"
)

// TestFastSolveSteadyStateAllocs pins the solve workspace's claim for the
// BSM American put, as internal/lattice's test of the same name does for
// every grid: after a warm-up, a T=4096 fast solve at one worker allocates
// nothing. The problem, on the put's exercise table, is built once, outside
// the measured solves. Excluded under the race detector, whose sync.Pool
// drops Puts on purpose.
func TestFastSolveSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer par.SetWorkers(par.SetWorkers(1))
	const T = 4096
	m, err := New(option.Default(), T, 0)
	if err != nil {
		t.Fatal(err)
	}
	prob := putProblem(m, tableFill(m))
	want, err := m.PriceFast()
	if err != nil {
		t.Fatal(err)
	}
	solve := func() {
		if v, _, err := fbstencil.SolveGreenLeftOneSided(prob, nil); err != nil || v != want {
			t.Fatalf("solve %v (%v), want %v", v, err, want)
		}
	}
	solve()
	if a := testing.AllocsPerRun(10, solve); a != 0 {
		t.Errorf("bsm-put T=%d: %v allocs per warm fast solve, want 0", T, a)
	}
}
