package lattice_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/nlstencil/amop/internal/option"
)

// TestFastCallSweep draws 4,000 seeded contracts per tree over wide lattices
// — including the small dividend yields whose call red region reaches S*u^T —
// and checks (a) the fast call against the direct call sweep to 1e-9
// relative, and (b) McDonald–Schroder symmetry on the direct sweeps: the
// call equals the put of the swapped contract (S and K, R and Y exchanged)
// built by the tree's New, to 1e-10 relative, whenever New accepts the swap.
// Only contracts New rejects and those whose direct sweep is not finite are
// skipped.
func TestFastCallSweep(t *testing.T) {
	for _, tree := range trees {
		t.Run(tree.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			var ran, fastMiss, symMiss int
			var fastWorst, symWorst float64
			for i := range 4000 {
				p := option.Params{
					S: 10 + 400*rng.Float64(),
					K: 10 + 400*rng.Float64(),
					R: 0.1 * rng.Float64(),
					Y: 0.1 * rng.Float64(),
					V: 0.05 + 20*rng.Float64()*rng.Float64(),
					E: 0.05 + 5*rng.Float64(),
				}
				if i%3 == 0 {
					p.Y = 0
				}
				m, err := tree.new(p, 1+rng.Intn(300))
				if err != nil {
					continue
				}
				naive := m.PriceNaive(option.Call)
				if math.IsNaN(naive) || math.IsInf(naive, 0) {
					continue
				}
				ran++
				scale := math.Max(1, math.Abs(naive))
				fast, err := m.PriceFast()
				d := math.Abs(fast-naive) / scale
				if err != nil || !(d <= 1e-9) {
					if fastMiss++; fastMiss <= 5 {
						t.Errorf("fast call %+v T=%d: %v (err %v), naive %v", p, m.T, fast, err, naive)
					}
				}
				fastWorst = math.Max(fastWorst, d)
				sw, err := tree.new(option.Params{S: p.K, K: p.S, R: p.Y, Y: p.R, V: p.V, E: p.E}, m.T)
				if err != nil {
					continue
				}
				put := sw.PriceNaive(option.Put)
				d = math.Abs(put-naive) / scale
				if !(d <= 1e-10) {
					if symMiss++; symMiss <= 5 {
						t.Errorf("swapped put %+v T=%d: %v, naive call %v", p, m.T, put, naive)
					}
				}
				symWorst = math.Max(symWorst, d)
			}
			t.Logf("%d cases: %d fast-call misses (worst %.3g), %d symmetry misses (worst %.3g)", ran, fastMiss, fastWorst, symMiss, symWorst)
			if ran < 3000 {
				t.Errorf("only %d of 4000 draws priced", ran)
			}
		})
	}
}
