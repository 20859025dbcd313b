package amop

import (
	"context"
	"sync"
	"testing"

	"github.com/nlstencil/amop/internal/fft"
	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/obs"
)

// sweepBook returns a small mixed book: calls (binomial fast path) and an
// American put (BSM finite differences), with heterogeneous strikes.
func sweepBook(steps int) []Request {
	base := defaultCall()
	var reqs []Request
	for _, k := range []float64{120, 130, 140} {
		o := base
		o.K = k
		reqs = append(reqs, Request{Option: o, Config: Config{Steps: steps}})
	}
	put := base
	put.Type = Put
	reqs = append(reqs, Request{Option: put, Model: AutoModel, Config: Config{Steps: steps}})
	return reqs
}

func TestScenarioGridExpansion(t *testing.T) {
	g := ScenarioGrid{
		SpotBumps: []float64{-0.05, 0, 0.05},
		VolBumps:  []float64{-0.02, 0, 0.02},
		Stress:    []Scenario{{Name: "crash", Spot: -0.3, Vol: 0.15}},
	}
	scs := g.Scenarios()
	if len(scs) != 10 {
		t.Fatalf("expanded %d scenarios, want 3*3*1 + 1 = 10", len(scs))
	}
	bases := 0
	for _, sc := range scs {
		if sc.IsBase() {
			bases++
		}
	}
	if bases != 1 {
		t.Errorf("%d base scenarios in the grid, want exactly 1", bases)
	}
	if got := scs[len(scs)-1].Label(); got != "crash" {
		t.Errorf("stress label %q, want crash", got)
	}
	if got := (Scenario{}).Label(); got != "base" {
		t.Errorf("zero scenario label %q, want base", got)
	}
	if got := (Scenario{Spot: 0.05, Rate: 0.0025}).Label(); got != "spot+5%/rate+25bp" {
		t.Errorf("derived label %q", got)
	}
	if len(ScenarioGrid{}.Scenarios()) != 1 {
		t.Error("empty grid should expand to the single base scenario")
	}
	if !(ScenarioGrid{}).IsEmpty() || g.IsEmpty() || (ScenarioGrid{Stress: g.Stress}).IsEmpty() {
		t.Error("IsEmpty misclassifies a grid")
	}
}

// At full scenario resolution (ScenarioSteps < 0) the sweep must agree
// exactly with pricing each bumped contract directly — the control variate
// degenerates to the plain scenario price.
func TestScenarioSweepMatchesDirectFullRes(t *testing.T) {
	reqs := sweepBook(600)
	scenarios := ScenarioGrid{SpotBumps: []float64{-0.04, 0, 0.04}, VolBumps: []float64{0, 0.02}}.Scenarios()
	sw := ScenarioSweep(reqs, scenarios, SweepOptions{ScenarioSteps: -1})
	if sw.Stats.Cells != len(reqs)*len(scenarios) {
		t.Fatalf("Stats.Cells = %d", sw.Stats.Cells)
	}
	for c, req := range reqs {
		base, err := Price(req.Option, resolveModel(req.Option, req.Model, req.Config), req.Config)
		if err != nil {
			t.Fatalf("contract %d base: %v", c, err)
		}
		if sw.Base[c].Err != nil || sw.Base[c].Price != base {
			t.Fatalf("contract %d: sweep base %v (err %v), want %v", c, sw.Base[c].Price, sw.Base[c].Err, base)
		}
		for s, sc := range scenarios {
			cell := sw.At(c, s)
			if cell.Err != nil {
				t.Fatalf("cell (%d,%d): %v", c, s, cell.Err)
			}
			want, err := Price(sc.Apply(req.Option), resolveModel(req.Option, req.Model, req.Config), req.Config)
			if err != nil {
				t.Fatalf("cell (%d,%d) direct: %v", c, s, err)
			}
			if cell.Price != want {
				t.Errorf("cell (%d,%d): price %v, want %v", c, s, cell.Price, want)
			}
			if cell.PnL != cell.Price-base {
				t.Errorf("cell (%d,%d): PnL %v != price - base %v", c, s, cell.PnL, cell.Price-base)
			}
		}
	}
}

// At the default reduced resolution the sweep price must equal the
// control-variate formula assembled from three direct Price calls, and the
// zero-bump cell must collapse exactly onto the full-resolution base.
func TestScenarioSweepControlVariate(t *testing.T) {
	steps := 800
	reqs := sweepBook(steps)
	scenarios := []Scenario{{}, {Spot: -0.05}, {Vol: 0.03}}
	sw := ScenarioSweep(reqs, scenarios, SweepOptions{})
	loCfg := Config{Steps: steps / 2}
	for c, req := range reqs {
		m := resolveModel(req.Option, req.Model, req.Config)
		hi, err := Price(req.Option, m, req.Config)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := Price(req.Option, m, loCfg)
		if err != nil {
			t.Fatal(err)
		}
		for s, sc := range scenarios {
			cell := sw.At(c, s)
			if cell.Err != nil {
				t.Fatalf("cell (%d,%d): %v", c, s, cell.Err)
			}
			scen, err := Price(sc.Apply(req.Option), m, loCfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := hi + (scen - lo); cell.Price != want {
				t.Errorf("cell (%d,%d): price %v, want cv %v", c, s, cell.Price, want)
			}
		}
		if zero := sw.At(c, 0); zero.Price != hi || zero.PnL != 0 {
			t.Errorf("contract %d: zero-bump cell (price %v, pnl %v), want (%v, 0)", c, zero.Price, zero.PnL, hi)
		}
	}
}

// One scenario that drives the volatility negative must fail only its own
// column: every other cell, and every base price, stays healthy.
func TestScenarioSweepPartialFailure(t *testing.T) {
	reqs := sweepBook(400)
	scenarios := []Scenario{{Spot: 0.02}, {Name: "poison", Vol: -0.5}, {Rate: 0.001}}
	sw := ScenarioSweep(reqs, scenarios, SweepOptions{})
	for c := range reqs {
		if sw.Base[c].Err != nil {
			t.Fatalf("base %d failed: %v", c, sw.Base[c].Err)
		}
		for s := range scenarios {
			cell := sw.At(c, s)
			if s == 1 {
				if cell.Err == nil {
					t.Errorf("cell (%d,%d): negative-vol scenario did not error", c, s)
				}
				continue
			}
			if cell.Err != nil {
				t.Errorf("cell (%d,%d) poisoned by sibling scenario: %v", c, s, cell.Err)
			}
			if cell.Price <= 0 {
				t.Errorf("cell (%d,%d): price %v", c, s, cell.Price)
			}
		}
	}
}

// The plan must fold duplicate contracts, repeated scenarios and the
// zero-bump point into single repricings, and duplicated cells must carry
// identical results.
func TestScenarioSweepPlanDedup(t *testing.T) {
	req := Request{Option: defaultCall(), Config: Config{Steps: 300}}
	reqs := []Request{req, req} // duplicate contract
	scenarios := []Scenario{{}, {Spot: 0.05}, {Spot: 0.05}}
	sw := ScenarioSweep(reqs, scenarios, SweepOptions{})
	// Unique work: one hi anchor, one lo anchor, one bumped point — the
	// duplicate contract, the repeated scenario, and the zero-bump cell (which
	// coincides with the lo anchor) all dedupe away.
	if sw.Stats.UniqueRepricings != 3 {
		t.Errorf("UniqueRepricings = %d, want 3", sw.Stats.UniqueRepricings)
	}
	if sw.Stats.Cells != 6 {
		t.Errorf("Cells = %d, want 6", sw.Stats.Cells)
	}
	if a, b := sw.At(0, 1), sw.At(1, 2); a != b {
		t.Errorf("duplicated cells disagree: %+v vs %+v", a, b)
	}
}

// TestScenarioSweepCtxTrace checks that a sweep records its solves into the
// trace its context carries, as PriceBatchCtx does.
func TestScenarioSweepCtxTrace(t *testing.T) {
	tr := obs.StartTrace("sweep", "test")
	req := Request{Option: defaultCall(), Config: Config{Steps: 300}}
	sw := ScenarioSweepCtx(obs.NewContext(context.Background(), tr), []Request{req}, []Scenario{{}, {Spot: 0.05}}, SweepOptions{})
	var solves int64
	for _, st := range tr.Finish().Stages {
		if st.Stage == obs.StageSolveLattice.String() {
			solves = st.Count
		}
	}
	if solves != int64(sw.Stats.UniqueRepricings) {
		t.Errorf("trace holds %d lattice solves, want one per unique repricing (%d)", solves, sw.Stats.UniqueRepricings)
	}
}

func TestScenarioSweepOnResultStreams(t *testing.T) {
	reqs := sweepBook(300)
	scenarios := ScenarioGrid{SpotBumps: []float64{-0.02, 0.02}, VolBumps: []float64{-0.01, 0.01}}.Scenarios()
	var mu sync.Mutex
	seen := make(map[[2]int]int)
	inCallback := false
	sw := ScenarioSweep(reqs, scenarios, SweepOptions{
		OnResult: func(c, s int, r ScenarioResult) {
			mu.Lock()
			defer mu.Unlock()
			if inCallback {
				t.Error("OnResult not serialized")
			}
			inCallback = true
			defer func() { inCallback = false }()
			if c < 0 || c >= len(reqs) || s < 0 || s >= len(scenarios) {
				t.Errorf("OnResult out of range: (%d,%d)", c, s)
			}
			seen[[2]int{c, s}]++
		},
	})
	if len(seen) != sw.Stats.Cells {
		t.Fatalf("streamed %d distinct cells, want %d", len(seen), sw.Stats.Cells)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("cell %v streamed %d times", k, n)
		}
	}
}

func TestScenarioSweepGreeks(t *testing.T) {
	reqs := []Request{{Option: defaultCall(), Config: Config{Steps: 500}}}
	scenarios := []Scenario{{}, {Spot: -0.05}}
	sw := ScenarioSweep(reqs, scenarios, SweepOptions{Greeks: true})
	for s := range scenarios {
		cell := sw.At(0, s)
		if cell.Err != nil {
			t.Fatalf("scenario %d: %v", s, cell.Err)
		}
		if cell.Greeks.Delta <= 0 || cell.Greeks.Delta >= 1 {
			t.Errorf("scenario %d: call delta %v outside (0,1)", s, cell.Greeks.Delta)
		}
		if cell.Greeks.Vega <= 0 {
			t.Errorf("scenario %d: vega %v", s, cell.Greeks.Vega)
		}
	}
	// The downward spot scenario must lower the call's delta.
	if d0, d1 := sw.At(0, 0).Greeks.Delta, sw.At(0, 1).Greeks.Delta; d1 >= d0 {
		t.Errorf("delta did not fall under the down-spot scenario: %v -> %v", d0, d1)
	}
}

func TestScenarioSweepEmptyInputs(t *testing.T) {
	if sw := ScenarioSweep(nil, []Scenario{{Spot: 0.1}}, SweepOptions{}); len(sw.Results) != 0 || sw.Stats.UniqueRepricings != 0 {
		t.Errorf("nil requests: %+v", sw.Stats)
	}
	reqs := []Request{{Option: defaultCall(), Config: Config{Steps: 200}}}
	sw := ScenarioSweep(reqs, nil, SweepOptions{})
	if len(sw.Results) != 0 {
		t.Errorf("nil scenarios produced %d cells", len(sw.Results))
	}
	if sw.Base[0].Err != nil || sw.Base[0].Price <= 0 {
		t.Errorf("nil scenarios: base not priced: %+v", sw.Base[0])
	}
	if sw.Stats.UniqueRepricings != 1 {
		t.Errorf("nil scenarios: UniqueRepricings = %d, want 1 (base only)", sw.Stats.UniqueRepricings)
	}
}

// Concurrent sweeps share the process-wide spectrum cache; run under -race
// they must still produce results identical to a serial sweep.
func TestScenarioSweepConcurrentSharedCache(t *testing.T) {
	reqs := sweepBook(400)
	scenarios := ScenarioGrid{SpotBumps: []float64{-0.03, 0.03}, VolBumps: []float64{-0.01, 0.01}}.Scenarios()
	want := ScenarioSweep(reqs, scenarios, SweepOptions{})
	var wg sync.WaitGroup
	got := make([]*Sweep, 4)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = ScenarioSweep(reqs, scenarios, SweepOptions{Workers: 2})
		}(g)
	}
	wg.Wait()
	for g, sw := range got {
		for i := range want.Results {
			if sw.Results[i] != want.Results[i] {
				t.Fatalf("goroutine %d cell %d: %+v, want %+v", g, i, sw.Results[i], want.Results[i])
			}
		}
	}
}

// Perf counters must be monotone across a sweep, and a default sweep (base
// at full resolution, scenarios at half) on a flushed cache must build
// kernel spectra.
func TestSweepPerfCountersMonotone(t *testing.T) {
	// Flush the spectrum cache so the sweep below rebuilds its spectra even
	// if an earlier test priced the same book.
	linstencil.SetSpectrumCacheLimit(0)
	linstencil.SetSpectrumCacheLimit(linstencil.DefaultSpectrumCacheLimit)
	names := [...]string{"spectrum cache hits", "spectrum cache misses", "FFT bytes transformed", "repricing memo hits", "repricing memo misses"}
	read := func() [len(names)]int64 {
		specHits, specMisses, _, _ := linstencil.SpectrumCacheStats()
		memoHits, memoMisses := RepricingMemoStats()
		return [...]int64{specHits, specMisses, fft.TransformedBytes(), memoHits, memoMisses}
	}
	before := read()
	reqs := sweepBook(2048)
	scenarios := ScenarioGrid{SpotBumps: []float64{-0.05, 0.05}, VolBumps: []float64{-0.02, 0.02}}.Scenarios()
	sw := ScenarioSweep(reqs, scenarios, SweepOptions{})
	for i, r := range sw.Results {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
	}
	after := read()
	for i, name := range names {
		if after[i] < before[i] {
			t.Errorf("%s went backwards: %d -> %d", name, before[i], after[i])
		}
	}
	if after[1] == before[1] {
		t.Error("sweep built no kernel spectra (cache flush did not take?)")
	}
}
