package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/nlstencil/amop"
	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/bsm"
	"github.com/nlstencil/amop/internal/fft"
	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/topm"
)

// Reference tolerances. The lattice carries an O(1/T) discretization error,
// which on these inputs stays below 3/T; the analytic tier is accurate to
// ~1e-6. latticeTol allows 8/T. The sweep's control-variate P&L carries the
// difference of two such errors and is allowed 20/T (1e-2 at T=2000).
const priceTol = 1e-9 // slack below intrinsic value, and for exact re-pricing

func latticeTol(steps int) float64 { return 8 / float64(steps) }

func sweepTol(steps int) float64 { return 20 / float64(steps) }

func params(o amop.Option) option.Params {
	return option.Params{S: o.S, K: o.K, R: o.R, V: o.V, Y: o.Y, E: o.E}
}

// --- lattice-deep -------------------------------------------------------

// deepModels is the cycle lattice-deep runs: the paper's three fast
// solvers, each on the option type it prices.
var deepModels = [3]struct {
	name  string
	model amop.Model
	typ   amop.OptionType
}{
	{"bopm", amop.Binomial, amop.Call},
	{"topm", amop.Trinomial, amop.Call},
	{"bsm", amop.BlackScholesFD, amop.Put},
}

type latticeDeep struct {
	steps   int
	base    amop.Option
	rng     *rand.Rand
	strikes []float64
	last    float64
	priced  []amop.Option
	prices  []float64
}

func newLatticeDeep(c config) *latticeDeep {
	rng := rand.New(rand.NewSource(c.seed))
	return &latticeDeep{
		steps: c.size(1<<16, 1<<10),
		base:  amop.Option{S: 127.62, R: 0.00163, Y: 0.0163, V: 0.19 + 0.02*rng.Float64(), E: 1},
		rng:   rng,
	}
}

// input is op i's contract: the model cycles, the strike is drawn per op.
// A new strike keeps the model's stencil, so the spectrum cache stays warm.
func (w *latticeDeep) input(i int) (amop.Option, int) {
	for len(w.strikes) <= i {
		w.strikes = append(w.strikes, 115+25*w.rng.Float64())
	}
	mi := i % len(deepModels)
	o := w.base
	o.K, o.Type = w.strikes[i], deepModels[mi].typ
	return o, mi
}

func (w *latticeDeep) setup(rep int) error {
	fft.Prewarm(2*w.steps + 2)
	o := w.base
	o.V += 0.004 * float64(rep+1)
	o.K = o.S
	for _, dm := range deepModels {
		o.Type = dm.typ
		if _, err := amop.Price(o, dm.model, amop.Config{Steps: w.steps}); err != nil {
			return err
		}
	}
	return nil
}

func (w *latticeDeep) op(ctx context.Context, i int, tc *traceCtx) (int, string, error) {
	o, mi := w.input(i)
	var err error
	if tc == nil {
		w.last, err = amop.PriceCtx(ctx, o, deepModels[mi].model, amop.Config{Steps: w.steps})
	} else {
		w.last, err = w.direct(o, mi, tc)
	}
	return 1, deepModels[mi].name, err
}

// direct is the traced-run form of the op: the same solve as amop.Price,
// called one layer down so the benchmark can span the model build and the
// free-boundary solve separately.
func (w *latticeDeep) direct(o amop.Option, mi int, tc *traceCtx) (float64, error) {
	tc.run.direct = true
	p := params(o)
	start := time.Now()
	var solve func() (float64, error)
	switch deepModels[mi].model {
	case amop.Binomial:
		m, err := bopm.New(p, w.steps)
		if err != nil {
			return 0, err
		}
		solve = func() (float64, error) { return m.PriceFastStats(tc.fb) }
	case amop.Trinomial:
		m, err := topm.New(p, w.steps)
		if err != nil {
			return 0, err
		}
		solve = func() (float64, error) { return m.PriceFastStats(tc.fb) }
	default:
		m, err := bsm.New(p, w.steps, 0)
		if err != nil {
			return 0, err
		}
		solve = func() (float64, error) { return m.PriceFastStats(tc.fb) }
	}
	tc.span("build", start)
	if tc.record {
		name := deepModels[mi].name
		tc.run.builds[name] = append(tc.run.builds[name], ms(time.Since(start)))
	}
	start = time.Now()
	v, err := solve()
	tc.span("solve_lattice", start)
	return v, err
}

func (w *latticeDeep) verify(i int) error {
	o, _ := w.input(i)
	w.priced = append(w.priced, o)
	w.prices = append(w.prices, w.last)
	return checkPrice(o, w.last, priceTol)
}

// reference prices every op's contract on the analytic tier.
func (w *latticeDeep) reference() (float64, error) {
	worst := 0.0
	for j, o := range w.priced {
		a, err := amop.Price(o, 0, amop.Config{Algorithm: amop.Analytic})
		if err != nil {
			return 0, err
		}
		worst = math.Max(worst, math.Abs(a-w.prices[j]))
	}
	if tol := latticeTol(w.steps); worst > tol {
		return worst, fmt.Errorf("lattice vs analytic differ by %.3g > %.3g", worst, tol)
	}
	return worst, nil
}

func (w *latticeDeep) traceOps() int { return 6 }

// --- chain-lattice and chain-analytic -----------------------------------

// chainMarket is one market state of the underlying.
type chainMarket struct{ spot, vol float64 }

// surface is a call chain and a put chain priced at one market.
type surface struct {
	m      chainMarket
	quotes [2][]amop.Quote // calls, puts
}

var chainTypes = [2]amop.OptionType{amop.Call, amop.Put}

// chainSurface reprices a desk's surface as the market moves. One op is two
// surfaces: one after a spot and vol move, then one after a spot move only.
// A vol move changes every stencil and exercise boundary, a spot move
// changes none, so the pair holds both kinds of work in every op. Each op
// starts from an empty kernel-spectrum cache: within one process the cache
// otherwise fills with stale stencils until, after ~20 surfaces, its random
// eviction starts throwing out the working set and a surface takes three
// times as long; starting each op afresh keeps every op in the same regime,
// however many ops a run fits.
type chainSurface struct {
	tier     amop.TierMode
	steps    int
	refSteps int // lattice resolution of the analytic chain's reference
	base     amop.Option
	strikes  []float64
	expiries []float64
	rng      *rand.Rand
	markets  []chainMarket
	last     [2]surface
	kept     []surface // op 0's surfaces, which the reference re-prices
}

func newChainSurface(c config, tier amop.TierMode) *chainSurface {
	rng := rand.New(rand.NewSource(c.seed))
	s := 120 + 15*rng.Float64()
	w := &chainSurface{
		tier:     tier,
		steps:    c.size(4000, 200),
		refSteps: c.size(16000, 4000),
		base:     amop.Option{S: s, R: 0.03, Y: 0.01, V: 0.19 + 0.04*rng.Float64()},
		expiries: []float64{0.25, 0.5, 1},
		rng:      rng,
	}
	n := c.size(15, 3)
	for i := 0; i < n; i++ {
		w.strikes = append(w.strikes, math.Round(s*(0.9+0.2*float64(i)/float64(n-1))))
	}
	return w
}

// market returns the k-th market: spot moves every time, vol at odd k.
// Moves are drawn around the seed's base market rather than walked from the
// last one, so the surface never drifts into a different regime however
// long the run.
func (w *chainSurface) market(k int) chainMarket {
	for len(w.markets) <= k {
		j := len(w.markets)
		m := chainMarket{w.base.S, w.base.V}
		if j > 0 {
			m = w.markets[j-1]
			m.spot = w.base.S * (1 + 0.02*(2*w.rng.Float64()-1))
			if j%2 == 1 {
				m.vol = w.base.V + 0.01*(2*w.rng.Float64()-1)
			}
		}
		w.markets = append(w.markets, m)
	}
	return w.markets[k]
}

func (w *chainSurface) price(ctx context.Context, m chainMarket) surface {
	opts := amop.ChainOptions{Steps: w.steps, Tier: w.tier}
	out := surface{m: m}
	for k, typ := range chainTypes {
		u := w.base
		u.Type, u.S, u.V = typ, m.spot, m.vol
		out.quotes[k] = amop.ChainCtx(ctx, u, w.strikes, w.expiries, opts)
	}
	return out
}

// setup prices one surface on a market of its own.
func (w *chainSurface) setup(rep int) error {
	m := w.market(1)
	m.vol += 0.004 * float64(rep+1)
	return w.check(w.price(context.Background(), m))
}

func (w *chainSurface) op(ctx context.Context, i int, _ *traceCtx) (int, string, error) {
	linstencil.SetSpectrumCacheLimit(0)
	linstencil.SetSpectrumCacheLimit(linstencil.DefaultSpectrumCacheLimit)
	cells := 0
	for j := range w.last {
		w.last[j] = w.price(ctx, w.market(2*i+1+j))
		cells += len(w.last[j].quotes[0]) + len(w.last[j].quotes[1])
	}
	return cells, "", nil
}

// option is the contract behind quote q of chain k in surface s.
func (w *chainSurface) option(s surface, k int, q amop.Quote) amop.Option {
	o := w.base
	o.Type, o.S, o.V, o.K, o.E = chainTypes[k], s.m.spot, s.m.vol, q.Strike, q.Expiry
	return o
}

func (w *chainSurface) check(s surface) error {
	for k := range chainTypes {
		for _, q := range s.quotes[k] {
			if q.Err != nil {
				return q.Err
			}
			if err := checkPrice(w.option(s, k, q), q.Price, priceTol); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *chainSurface) verify(i int) error {
	for _, s := range w.last {
		if err := w.check(s); err != nil {
			return err
		}
	}
	if i == 0 {
		w.kept = append([]surface(nil), w.last[:]...)
	}
	return nil
}

// reference re-prices op 0's cells on the other tier: the lattice chain
// against the analytic tier (every cell), the analytic chain against the
// fast lattice at refSteps (the lowest, middle and highest strike).
func (w *chainSurface) reference() (float64, error) {
	worst, tol := 0.0, latticeTol(w.steps)
	if w.tier != amop.TierLattice {
		tol = latticeTol(w.refSteps)
	}
	for _, s := range w.kept {
		for k, typ := range chainTypes {
			for j, q := range s.quotes[k] {
				o := w.option(s, k, q)
				var ref float64
				var err error
				if w.tier == amop.TierLattice {
					ref, err = amop.Price(o, 0, amop.Config{Algorithm: amop.Analytic})
				} else {
					si := j / len(w.expiries)
					if si != 0 && si != len(w.strikes)/2 && si != len(w.strikes)-1 {
						continue
					}
					model := amop.Binomial
					if typ == amop.Put {
						model = amop.BlackScholesFD
					}
					ref, err = amop.Price(o, model, amop.Config{Steps: w.refSteps})
				}
				if err != nil {
					return 0, err
				}
				worst = math.Max(worst, math.Abs(ref-q.Price))
			}
		}
	}
	if worst > tol {
		return worst, fmt.Errorf("chain vs reference differ by %.3g > %.3g", worst, tol)
	}
	return worst, nil
}

func (w *chainSurface) traceOps() int {
	if w.tier == amop.TierLattice {
		return 1
	}
	return 5
}

// --- sweep-grid ---------------------------------------------------------

type sweepGrid struct {
	steps     int
	scenarios []amop.Scenario
	rng       *rand.Rand
	markets   []chainMarket
	strikes   []float64
	last      *amop.Sweep
	kept      *amop.Sweep
}

func newSweepGrid(c config) *sweepGrid {
	w := &sweepGrid{
		steps: c.size(2000, 100),
		scenarios: amop.ScenarioGrid{
			SpotBumps: []float64{-0.10, -0.05, 0, 0.05, 0.10},
			VolBumps:  []float64{-0.04, -0.02, 0, 0.02, 0.04},
		}.Scenarios(),
		rng: rand.New(rand.NewSource(c.seed)),
	}
	n := c.size(15, 3)
	for i := 0; i < n; i++ {
		w.strikes = append(w.strikes, 100+56*float64(i)/float64(n-1))
	}
	return w
}

// market draws op i's base market; every op prices a new one, so the
// sweep's stencils are new and the spectrum cache mostly builds.
func (w *sweepGrid) market(i int) chainMarket {
	for len(w.markets) <= i {
		w.markets = append(w.markets, chainMarket{125 + 5*w.rng.Float64(), 0.20 + 0.02*w.rng.Float64()})
	}
	return w.markets[i]
}

// book is the 45-contract book at market m: 15 strikes x 3 expiries, every
// third strike an American put.
func (w *sweepGrid) book(m chainMarket) []amop.Request {
	var reqs []amop.Request
	for i, k := range w.strikes {
		o := amop.Option{S: m.spot, K: k, R: 0.00163, Y: 0.0163, V: m.vol}
		if i%3 == 2 {
			o.Type = amop.Put
		}
		for _, e := range []float64{0.25, 0.5, 1} {
			o.E = e
			reqs = append(reqs, amop.Request{Option: o, Model: amop.AutoModel, Config: amop.Config{Steps: w.steps}})
		}
	}
	return reqs
}

func (w *sweepGrid) setup(rep int) error {
	m := w.market(0)
	m.vol += 0.004 * float64(rep+1)
	sw := amop.ScenarioSweep(w.book(m), w.scenarios, amop.SweepOptions{})
	for _, r := range sw.Results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

func (w *sweepGrid) op(ctx context.Context, i int, tc *traceCtx) (int, string, error) {
	w.last = amop.ScenarioSweepCtx(ctx, w.book(w.market(i)), w.scenarios, amop.SweepOptions{})
	if tc != nil && tc.record {
		tc.run.unique += float64(w.last.Stats.UniqueRepricings)
		tc.run.planCells += float64(w.last.Stats.Cells + len(w.last.Base))
	}
	return len(w.last.Results), "", nil
}

func (w *sweepGrid) verify(i int) error {
	reqs := w.book(w.market(i))
	for c, req := range reqs {
		for s, sc := range w.scenarios {
			r := w.last.At(c, s)
			if r.Err != nil {
				return r.Err
			}
			// Scenario prices are control-variate corrected, so they may sit
			// below intrinsic value by up to the correction's accuracy.
			if err := checkPrice(sc.Apply(req.Option), r.Price, sweepTol(w.steps)); err != nil {
				return err
			}
		}
	}
	if i == 0 {
		w.kept = w.last
	}
	return nil
}

// reference re-prices op 0's grid the naive way: one full-resolution
// PriceBatch per scenario, and compares P&L.
func (w *sweepGrid) reference() (float64, error) {
	reqs := w.book(w.market(0))
	base := amop.PriceBatch(reqs, amop.BatchOptions{})
	worst := 0.0
	for s, sc := range w.scenarios {
		bumped := make([]amop.Request, len(reqs))
		for c, req := range reqs {
			req.Option = sc.Apply(req.Option)
			bumped[c] = req
		}
		for c, r := range amop.PriceBatch(bumped, amop.BatchOptions{}) {
			if r.Err != nil {
				return 0, r.Err
			}
			worst = math.Max(worst, math.Abs(w.kept.At(c, s).PnL-(r.Price-base[c].Price)))
		}
	}
	if tol := sweepTol(w.steps); worst > tol {
		return worst, fmt.Errorf("sweep P&L vs full resolution differ by %.3g > %.3g", worst, tol)
	}
	return worst, nil
}

func (w *sweepGrid) traceOps() int { return 2 }
