// Scenario sweeps: price a whole portfolio under a grid of market scenarios
// — spot, volatility and rate bumps, plus named stress states — with
// cross-scenario amortization. This is the risk-desk workload one level above
// PriceBatch: a book is repriced under every point of a bump grid to build
// P&L ladders, and the scenarios share almost all of their structure. The
// sweep engine exploits that three ways:
//
//   - the (contract, scenario) product is folded into canonical repricing
//     tasks, so duplicate contracts, repeated scenarios, and the zero-bump
//     grid point all price exactly once, and every task's result fans back
//     out to all the result cells that need it;
//   - scenario repricings run at a reduced lattice resolution with a
//     control-variate correction against the full-resolution base price
//     (price = base_full + scenario_low - base_low): the O(1/T) lattice bias
//     largely cancels in the scenario-minus-base difference, so P&L keeps
//     full-resolution accuracy at a fraction of the work;
//   - below the engine, the kernel-spectrum cache's cross-resolution symbol
//     sharing (internal/linstencil) lets the full-resolution base solves and
//     the reduced-resolution scenario solves derive their stencil symbols
//     from one another instead of evaluating them twice.
package amop

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/nlstencil/amop/internal/obs"
)

// Scenario is one market-state perturbation applied to every contract of a
// sweep. The zero value is the base scenario (no perturbation).
type Scenario struct {
	// Name labels the scenario in results and CLI output; empty names get a
	// derived label (see Label).
	Name string `json:"name,omitempty"`
	// Spot is the relative spot bump: S becomes S * (1 + Spot).
	Spot float64 `json:"spot,omitempty"`
	// Vol is the absolute volatility bump: V becomes V + Vol.
	Vol float64 `json:"vol,omitempty"`
	// Rate is the absolute rate bump: R becomes R + Rate.
	Rate float64 `json:"rate,omitempty"`
}

// Apply returns the option under the scenario's market state.
func (sc Scenario) Apply(o Option) Option {
	o.S *= 1 + sc.Spot
	o.V += sc.Vol
	o.R += sc.Rate
	return o
}

// IsBase reports whether the scenario leaves the market unchanged.
func (sc Scenario) IsBase() bool { return sc.Spot == 0 && sc.Vol == 0 && sc.Rate == 0 }

// Label returns the scenario's display name: Name when set, "base" for the
// zero scenario, and a compact bump description otherwise.
func (sc Scenario) Label() string {
	if sc.Name != "" {
		return sc.Name
	}
	if sc.IsBase() {
		return "base"
	}
	var parts []string
	if sc.Spot != 0 {
		parts = append(parts, fmt.Sprintf("spot%+g%%", 100*sc.Spot))
	}
	if sc.Vol != 0 {
		parts = append(parts, fmt.Sprintf("vol%+g", sc.Vol))
	}
	if sc.Rate != 0 {
		parts = append(parts, fmt.Sprintf("rate%+gbp", 10000*sc.Rate))
	}
	return strings.Join(parts, "/")
}

// ScenarioGrid describes a bump grid plus named stress scenarios. An empty
// axis contributes the single unbumped point, so a grid with only SpotBumps
// set sweeps spot alone.
type ScenarioGrid struct {
	SpotBumps []float64  `json:"spot_bumps,omitempty"` // relative, e.g. -0.05 for spot down 5%
	VolBumps  []float64  `json:"vol_bumps,omitempty"`  // absolute vol points
	RateBumps []float64  `json:"rate_bumps,omitempty"` // absolute rate points
	Stress    []Scenario `json:"stress,omitempty"`     // appended after the grid
}

// IsEmpty reports whether the grid has no bump axes and no stress scenarios
// (its expansion would be the single base scenario).
func (g ScenarioGrid) IsEmpty() bool {
	return len(g.SpotBumps) == 0 && len(g.VolBumps) == 0 && len(g.RateBumps) == 0 && len(g.Stress) == 0
}

// Scenarios expands the grid into the cartesian product of its axes (rate
// fastest, spot slowest), followed by the stress scenarios.
func (g ScenarioGrid) Scenarios() []Scenario {
	spot, vol, rate := gridAxis(g.SpotBumps), gridAxis(g.VolBumps), gridAxis(g.RateBumps)
	out := make([]Scenario, 0, len(spot)*len(vol)*len(rate)+len(g.Stress))
	for _, s := range spot {
		for _, v := range vol {
			for _, r := range rate {
				out = append(out, Scenario{Spot: s, Vol: v, Rate: r})
			}
		}
	}
	return append(out, g.Stress...)
}

func gridAxis(v []float64) []float64 {
	if len(v) == 0 {
		return []float64{0}
	}
	return v
}

// SweepOptions controls ScenarioSweep scheduling and resolution.
type SweepOptions struct {
	// Workers bounds the pool as in BatchOptions.
	Workers int
	// ScenarioSteps is the lattice resolution for scenario repricings. Zero
	// selects half of each request's Config.Steps: the sweep reports the
	// control-variate price base_full + (scenario_low - base_low), whose
	// scenario-minus-base difference cancels most of the O(1/T) lattice bias,
	// so scenario P&L keeps full-resolution accuracy at roughly half the
	// per-scenario work. A negative value prices every scenario at the
	// request's own full resolution (the correction then degenerates to the
	// plain scenario price).
	ScenarioSteps int
	// Greeks adds per-scenario bump-and-reprice Greeks around each scenario
	// point. The repricings route through the sweep's shared memo, so
	// neighboring bumps are priced once.
	Greeks bool
	// GreeksSteps is the resolution for the Greeks bumps; zero selects the
	// scenario resolution.
	GreeksSteps int
	// OnResult, when non-nil, is invoked once per (contract, scenario) cell
	// as it completes (serialized, completion order, concurrent with the
	// rest of the sweep) — e.g. to stream the P&L ladder as it fills in.
	OnResult func(contract, scenario int, r ScenarioResult)
}

// ScenarioResult is one cell of the sweep: a contract priced under a
// scenario. Err is per cell — one bad scenario (a bump driving the vol
// negative, a degenerate lattice) never poisons the rest of the grid.
type ScenarioResult struct {
	// Price is the scenario price (control-variate corrected when scenario
	// repricings run below the base resolution; see SweepOptions).
	Price float64
	// PnL is Price minus the contract's full-resolution base price.
	PnL float64
	// Greeks holds the scenario-point sensitivities when SweepOptions.Greeks
	// is set; zero otherwise.
	Greeks Greeks
	Err    error
}

// SweepStats summarizes the sweep plan.
type SweepStats struct {
	// Cells is the size of the (contract, scenario) product.
	Cells int
	// UniqueRepricings is the number of canonical repricing tasks the plan
	// actually priced — base anchors plus deduplicated scenario points.
	// Cells + Contracts repricings would be the naive cost; the gap is the
	// plan-level dedup (Greeks bumps are memoized separately and not
	// counted).
	UniqueRepricings int
}

// Sweep is the result of a ScenarioSweep.
type Sweep struct {
	// Scenarios echoes the swept scenarios, in input order.
	Scenarios []Scenario
	// Base holds each contract's full-resolution base price (the request
	// exactly as submitted), with per-contract errors.
	Base []Result
	// Results holds one cell per (contract, scenario) pair in row-major
	// contract-major order; use At for indexed access.
	Results []ScenarioResult
	Stats   SweepStats
}

// At returns the cell for contract c under scenario s.
func (sw *Sweep) At(c, s int) ScenarioResult {
	return sw.Results[c*len(sw.Scenarios)+s]
}

// sweepTask is one canonical repricing of the sweep plan: a deduplicated
// (option, model, config) point, together with the result slots its price
// fans out to.
type sweepTask struct {
	o     Option
	m     Model
	cfg   Config
	price float64
	err   error
	cells []int32 // dependent result cells; repeats mean repeated decrements
	bases []int32 // contracts whose full-resolution base price this is
}

// ScenarioSweep prices every request under every scenario and returns the
// full grid, with per-cell errors and per-contract base prices. The
// (contract, scenario) product is deduplicated into canonical repricing
// tasks, the tasks are sharded over one bounded worker pool (drawing on the
// same global spawn budget as the pricers' inner parallel loops), and each
// cell is assembled and streamed the moment its last dependency completes.
//
// Scenario repricings default to half the base resolution with a
// control-variate correction against the full-resolution base; see
// SweepOptions.ScenarioSteps.
func ScenarioSweep(reqs []Request, scenarios []Scenario, opts SweepOptions) *Sweep {
	return ScenarioSweepCtx(context.Background(), reqs, scenarios, opts)
}

// ScenarioSweepCtx is ScenarioSweep with a context. Sweeps are bulk-class
// work (see BatchOptions.Interactive): canceling the context fails every
// task not yet started immediately — cells depending on them carry the
// context's error — and stops in-flight solves within one trapezoid of
// work, with the spawn budget fully restored on return.
func ScenarioSweepCtx(ctx context.Context, reqs []Request, scenarios []Scenario, opts SweepOptions) *Sweep {
	sw := &Sweep{
		Scenarios: append([]Scenario(nil), scenarios...),
		Base:      make([]Result, len(reqs)),
		Results:   make([]ScenarioResult, len(reqs)*len(scenarios)),
	}
	sw.Stats.Cells = len(sw.Results)
	if len(reqs) == 0 {
		return sw
	}
	eng := newEngine()
	eng.cancel = ctxCancel(ctx)
	eng.trace = obs.FromContext(ctx)

	// Plan: fold the (contract, scenario) product into canonical tasks. A
	// task key is the fully resolved (option, model, config) triple, so
	// duplicate contracts, repeated scenarios, the zero-bump grid point, and
	// full-resolution sweeps whose low anchor coincides with the base all
	// collapse to single repricings.
	var tasks []*sweepTask
	index := make(map[priceKey]*sweepTask)
	taskFor := func(o Option, m Model, cfg Config) *sweepTask {
		m = resolveModel(o, m, cfg)
		k := priceKey{o: o, m: m, cfg: cfg}
		t := index[k]
		if t == nil {
			t = &sweepTask{o: o, m: m, cfg: cfg}
			index[k] = t
			tasks = append(tasks, t)
		}
		return t
	}

	type cellPlan struct{ hi, lo, scen *sweepTask }
	cells := make([]cellPlan, len(sw.Results))
	pending := make([]atomic.Int32, len(sw.Results))
	maxSteps := 0
	for c := range reqs {
		req := reqs[c]
		hi := taskFor(req.Option, req.Model, req.Config)
		hi.bases = append(hi.bases, int32(c))
		maxSteps = max(maxSteps, req.Config.Steps)
		if len(scenarios) == 0 {
			continue
		}
		scenSteps := opts.ScenarioSteps
		switch {
		case scenSteps == 0:
			scenSteps = max(req.Config.Steps/2, 1)
		case scenSteps < 0:
			scenSteps = req.Config.Steps
		}
		maxSteps = max(maxSteps, scenSteps)
		loCfg := req.Config
		loCfg.Steps = scenSteps
		lo := taskFor(req.Option, req.Model, loCfg)
		for s := range scenarios {
			idx := c*len(scenarios) + s
			scen := taskFor(scenarios[s].Apply(req.Option), req.Model, loCfg)
			cells[idx] = cellPlan{hi: hi, lo: lo, scen: scen}
			// Three dependency edges per cell; coinciding tasks (lo == hi at
			// full resolution, scen == lo on the zero bump) simply hold the
			// cell index more than once and decrement once per edge.
			hi.cells = append(hi.cells, int32(idx))
			lo.cells = append(lo.cells, int32(idx))
			scen.cells = append(scen.cells, int32(idx))
			pending[idx].Store(3)
		}
	}
	sw.Stats.UniqueRepricings = len(tasks)
	if opts.Greeks {
		maxSteps = max(maxSteps, opts.GreeksSteps)
	}
	eng.prewarm(maxSteps)

	var deliverMu sync.Mutex
	finalize := func(idx int) {
		cp := cells[idx]
		c, s := idx/len(scenarios), idx%len(scenarios)
		var r ScenarioResult
		switch {
		case cp.hi.err != nil:
			r.Err = cp.hi.err
		case cp.lo.err != nil:
			r.Err = cp.lo.err
		case cp.scen.err != nil:
			r.Err = cp.scen.err
		default:
			r.PnL = cp.scen.price - cp.lo.price
			r.Price = cp.hi.price + r.PnL
			if opts.Greeks {
				gcfg := cp.scen.cfg
				if opts.GreeksSteps > 0 {
					gcfg.Steps = opts.GreeksSteps
				}
				g, err := greeks(cp.scen.o, func(oo Option) (float64, error) {
					res := eng.run(Request{Option: oo, Model: reqs[c].Model, Config: gcfg})
					return res.Price, res.Err
				})
				if err != nil {
					r.Err = err
				} else {
					r.Greeks = g
				}
			}
		}
		sw.Results[idx] = r
		if opts.OnResult != nil {
			deliverMu.Lock()
			defer deliverMu.Unlock()
			opts.OnResult(c, s, r)
		}
	}

	runPool(len(tasks), opts.Workers, true, eng.trace, func(i int) {
		t := tasks[i]
		res := eng.run(Request{Option: t.o, Model: t.m, Config: t.cfg})
		t.price, t.err = res.Price, res.Err
		for _, c := range t.bases {
			sw.Base[c] = Result{Price: t.price, Err: t.err}
		}
		for _, idx := range t.cells {
			if pending[idx].Add(-1) == 0 {
				finalize(int(idx))
			}
		}
	})
	return sw
}
