package lattice_test

import (
	"math"
	"sync"
	"testing"

	"github.com/nlstencil/amop/internal/lattice"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/scratch"
)

// TestLadderSharedAcrossContracts prices strikes and spots on one grid of
// each kind, and on the trees the swapped call: every exercise table equals
// the closed form bit for bit at every net move, and all of them read one
// ladder.
func TestLadderSharedAcrossContracts(t *testing.T) {
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			const T = 333
			var models []*lattice.Model
			for _, sk := range [][2]float64{{100, 100}, {100, 80}, {100, 130}, {90, 100}, {120, 100}} {
				p := option.Params{S: sk[0], K: sk[1], R: 0.04, V: 0.25, Y: 0.01, E: 1}
				m, err := g.new(p, T)
				if err != nil {
					t.Fatal(err)
				}
				models = append(models, m)
				if g.calls {
					sw, err := lattice.Swap(m)
					if err != nil {
						t.Fatal(err)
					}
					models = append(models, sw)
				}
			}
			lad := lattice.Ladder(models[0])
			for _, m := range models {
				if l := lattice.Ladder(m); &l[0] != &lad[0] {
					t.Fatalf("S=%v K=%v: a ladder of its own", m.Prm.S, m.Prm.K)
				}
				tab := lattice.ExerciseTable(m)
				for k := 0; k <= 2*T; k++ {
					got, want := tab[lattice.TabIndex(m, k)], lattice.PutAt(m, k-T)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("S=%v K=%v move %d: table %v, closed form %v", m.Prm.S, m.Prm.K, k-T, got, want)
					}
				}
				scratch.PutFloats(tab)
			}
		})
	}
}

// TestConcurrentSolvesShareLadderAndSpectra runs fast calls and puts of
// several strikes of one tree on many goroutines at once, so they share
// one ladder and one kernel-spectrum entry per stencil (run with -race).
// Every price must equal the same contract's price from a serial solve.
func TestConcurrentSolvesShareLadderAndSpectra(t *testing.T) {
	for _, tree := range trees {
		const T = 1500
		type job struct {
			m    *lattice.Model
			kind option.Kind
			want float64
		}
		var jobs []job
		for _, k := range []float64{85, 100, 115} {
			m, err := tree.new(option.Params{S: 100, K: k, R: 0.03, V: 0.3, Y: 0.02, E: 1}, T)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []option.Kind{option.Call, option.Put} {
				v, err := m.FastTop(kind, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, job{m, kind, v})
			}
		}
		var wg sync.WaitGroup
		for g := range 6 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range len(jobs) {
					j := jobs[(g+i)%len(jobs)]
					if v, err := j.m.FastTop(j.kind, nil, nil); err != nil || v != j.want {
						t.Errorf("%s K=%v %v: concurrent %v (%v), serial %v", tree.name, j.m.Prm.K, j.kind, v, err, j.want)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestDeepLaddersSurviveAlternation prices the three T=65536 grids in turn,
// as a deep benchmark cycles them: each keeps its ladder instead of
// rebuilding it on every solve, which takes two of them per generation.
func TestDeepLaddersSurviveAlternation(t *testing.T) {
	const T = 1 << 16
	var models []*lattice.Model
	for _, g := range grids {
		m, err := g.new(option.Params{S: 100, K: 100, R: 0.05, V: 0.2, Y: 0.01, E: 1}, T)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	var first []*float64
	for _, m := range models {
		first = append(first, &lattice.Ladder(m)[0])
	}
	for round := range 4 {
		for i, m := range models {
			if got := &lattice.Ladder(m)[0]; got != first[i] {
				t.Fatalf("round %d: the %s ladder was rebuilt", round, grids[i].name)
			}
		}
	}
}
