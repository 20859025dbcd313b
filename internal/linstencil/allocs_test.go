//go:build !race

package linstencil

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/scratch"
)

// TestEvolveConeSteadyStateAllocs pins EvolveCone's claim of zero
// steady-state allocations: with one worker and a warm spectrum cache, an
// FFT-path evolution plus the PutFloats of its result allocates nothing,
// at sizes below, at and above the transform's parallel threshold.
// Excluded under the race detector, whose sync.Pool drops Puts on purpose.
// GOMAXPROCS is pinned to 1 before the warm-up run, as AllocsPerRun pins
// it, so the per-P magazines survive into the measured runs.
func TestEvolveConeSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer par.SetWorkers(par.SetWorkers(1))
	s := Stencil{MinOff: 0, W: []float64{0.48, 0.51}}
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{4096, 1 << 14, 1 << 17} {
		row := randRow(rng, n)
		evolve := func() {
			vals, _ := EvolveCone(row, s, n/4)
			scratch.PutFloats(vals)
		}
		evolve()
		if a := testing.AllocsPerRun(10, evolve); a != 0 {
			t.Errorf("n=%d: %v allocs per warm EvolveCone, want 0", n, a)
		}
	}
}
