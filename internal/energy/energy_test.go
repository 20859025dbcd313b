package energy

import (
	"testing"

	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/cachesim"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/sweep"
	"github.com/nlstencil/amop/internal/trace"
)

func TestEnergyComponents(t *testing.T) {
	m := Skylake()
	c := cachesim.Counters{Flops: 1e9, L1Hits: 1e9, L2Hits: 1e6, L2Misses: 1e5}
	b := m.Energy(c, 1.0)
	if b.Pkg <= m.PkgIdleW {
		t.Errorf("pkg energy %g does not exceed idle for heavy counters", b.Pkg)
	}
	if b.RAM <= m.RAMIdleW {
		t.Errorf("ram energy %g does not exceed idle", b.RAM)
	}
	if b.Total != b.Pkg+b.RAM {
		t.Error("total != pkg + ram")
	}
	// Zero counters, zero time: zero energy.
	z := m.Energy(cachesim.Counters{}, 0)
	if z.Total != 0 {
		t.Errorf("zero-input energy %g", z.Total)
	}
}

func TestEnergyMonotoneInCounters(t *testing.T) {
	m := Skylake()
	small := m.Energy(cachesim.Counters{Flops: 1e6}, 0.5)
	big := m.Energy(cachesim.Counters{Flops: 1e9}, 0.5)
	if big.Pkg <= small.Pkg {
		t.Error("pkg energy not monotone in flops")
	}
}

// TestFastSavesEnergy reproduces Figure 6's direction and shape: the fast
// algorithm's modeled dynamic energy is below the quadratic sweep's at
// moderate T (the paper reports ~50-80% savings near T=4000), and the
// saving factor grows with T (toward >99% at the paper's largest sizes).
func TestFastSavesEnergy(t *testing.T) {
	em := Skylake()
	ratio := func(T int) float64 {
		mdl, err := bopm.New(option.Default(), T)
		if err != nil {
			t.Fatal(err)
		}
		hN := cachesim.NewSKX()
		if _, err := trace.ReplaySweep(hN, mdl.SweepProblem(option.Call), sweep.Naive); err != nil {
			t.Fatal(err)
		}
		hF := cachesim.NewSKX()
		if _, err := trace.Replay(hF, mdl.PriceFastStats); err != nil {
			t.Fatal(err)
		}
		// Dynamic energy only (zero wall time): machine-independent.
		eN := em.Energy(hN.Snapshot(), 0).Total
		eF := em.Energy(hF.Snapshot(), 0).Total
		return eN / eF
	}
	r12 := ratio(1 << 12)
	r13 := ratio(1 << 13)
	if r13 < 1.5 {
		t.Errorf("fast saves only %.2fx dynamic energy at T=2^13", r13)
	}
	if r13 <= r12 {
		t.Errorf("energy saving factor not growing: %.2fx at 2^12 vs %.2fx at 2^13", r12, r13)
	}
}
