// Batch pricing engine: prices many option contracts concurrently over a
// bounded worker pool, with per-item error isolation, memoization of
// repeated contracts, and reuse of constructed lattice models across
// requests that share lattice parameters.
//
// This is the workload the paper's introduction motivates — a desk
// repricing a whole option surface fast enough to follow the market — made
// first-class: PriceBatch for arbitrary portfolios, Chain for the classic
// strikes x expiries grid with Greeks and round-trip implied vols.
package amop

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/bsm"
	"github.com/nlstencil/amop/internal/faultinject"
	"github.com/nlstencil/amop/internal/lattice"
	"github.com/nlstencil/amop/internal/obs"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/serve"
	"github.com/nlstencil/amop/internal/topm"
)

// AutoModel selects the natural model for the option type, as PriceAmerican
// does: binomial for calls, Black-Scholes-Merton finite differences for
// American puts (European puts stay on the binomial lattice).
const AutoModel Model = -1

// Request is one contract to price in a batch.
type Request struct {
	Option Option
	// Model is the discretization; AutoModel picks the natural model for
	// the option type. The zero value is Binomial, matching Price.
	Model Model
	// Config carries the per-request steps and algorithm, exactly as in
	// Price. Config.Steps is required (>= 1).
	Config Config
	// Tag is an opaque label carried for observability and fault injection
	// (the live server tags each request with its symbol). It is NOT part
	// of the pricing identity: requests differing only in Tag share one
	// memo entry.
	Tag string
}

// Result is the outcome of one Request. Err is set per item: one bad
// contract never aborts the rest of the batch.
type Result struct {
	Price float64
	Err   error
}

// BatchOptions controls PriceBatch and Chain scheduling.
type BatchOptions struct {
	// Workers bounds the number of requests priced concurrently; zero
	// selects par.Workers() (GOMAXPROCS unless overridden). The engine
	// claims its workers from the same spawn budget the pricers' inner
	// parallel loops draw on, so a saturated batch runs each pricer
	// serially instead of oversubscribing the machine.
	Workers int
	// OnResult, when non-nil, is invoked once per request as its result
	// completes (in completion order, serialized, concurrent with the rest
	// of the batch) — e.g. to stream quotes as they become available.
	OnResult func(i int, r Result)
	// Interactive marks the batch as quote-path work: its pool workers are
	// exempt from the bulk-reserve headroom (par.SetBulkReserve). Plain
	// batches and scenario sweeps are bulk class — under budget pressure
	// they degrade to serial execution first, so interactive repricing
	// flights (the live server sets Interactive) keep forking. Leave it
	// unset for desk analytics.
	Interactive bool
	// Tier selects the pricing tier: the zero value (TierLattice) keeps
	// every request on the stencil lattice; TierAuto promotes eligible
	// vanilla American contracts to the analytic fast path with silent
	// lattice fallback; TierAnalytic forces the analytic tier. See TierMode.
	Tier TierMode
}

// SolvePanicError is the per-item error produced when a pricer panics. It
// carries the panic value and the stack captured at the panic site (for
// panics raised inside a par fork, the forked worker's stack), so quarantine
// records and logs stay diagnosable. Match with errors.As.
type SolvePanicError struct {
	Value any
	Stack []byte
}

func (e *SolvePanicError) Error() string {
	return fmt.Sprintf("amop: panic while pricing: %v", e.Value)
}

// newSolvePanicError wraps a recovered panic value, preferring the
// panic-site stack a par.PanicError already carries over the (post-unwind)
// stack at the recovery site.
func newSolvePanicError(r any) *SolvePanicError {
	if pe, ok := r.(*par.PanicError); ok {
		return &SolvePanicError{Value: pe.Value, Stack: pe.Stack}
	}
	return &SolvePanicError{Value: r, Stack: debug.Stack()}
}

// PriceBatch prices every request over a bounded worker pool and returns one
// Result per request, in request order. Errors are reported per item;
// panics in a pricer are captured into that item's Err. Requests that repeat
// a contract (same option, model and config) are priced once and shared, and
// constructed lattice models are reused across requests with identical
// lattice parameters.
//
// Below the engine's own caches, all workers share the process-wide
// kernel-spectrum cache of the FFT fast path: requests that agree on lattice
// parameters and step count (a chain's strikes on one expiry, a surface
// repriced every tick) derive each stencil-symbol power spectrum once and
// amortize it across the whole pool. /metrics (WriteMetrics) exposes the hit
// rate.
func PriceBatch(reqs []Request, opts BatchOptions) []Result {
	return PriceBatchCtx(context.Background(), reqs, opts)
}

// PriceBatchCtx is PriceBatch with a context. Cancellation is observed at
// two granularities: items not yet started fail immediately with ctx.Err()
// (admission control — an expired deadline sheds the rest of the batch
// without solving anything), and items already solving stop within one
// trapezoid of work. Partial results priced before the cancellation are
// kept; the returned slice always has one Result per request.
func PriceBatchCtx(ctx context.Context, reqs []Request, opts BatchOptions) []Result {
	res := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return res
	}
	eng := newEngine()
	eng.cancel = ctxCancel(ctx)
	eng.tier = opts.Tier
	eng.trace = obs.FromContext(ctx)
	var deliverMu sync.Mutex
	runPool(len(reqs), opts.Workers, !opts.Interactive, eng.trace, func(i int) {
		r := eng.run(reqs[i])
		res[i] = r
		if opts.OnResult != nil {
			deliverMu.Lock()
			defer deliverMu.Unlock()
			opts.OnResult(i, r)
		}
	})
	return res
}

// ctxCancel projects a context onto the solvers' polling hook; the
// background context (never done) maps to nil so the hot path skips the
// poll entirely.
func ctxCancel(ctx context.Context) func() error {
	if ctx == nil || ctx == context.Background() || ctx.Done() == nil {
		return nil
	}
	return ctx.Err
}

// runPool executes job(0..n-1) on up to workers goroutines (bounded by n and
// by the global par spawn budget), pulling indices dynamically so
// heterogeneous jobs — mixed step counts, mixed algorithms — balance across
// the pool. The calling goroutine is one of the workers. Bulk pools leave
// the par.SetBulkReserve headroom untouched. When tr is non-nil the budget
// acquisition is timed into its budget_wait stage.
func runPool(n, workers int, bulk bool, tr *obs.Trace, job func(i int)) {
	w := workers
	if w <= 0 {
		w = par.Workers()
	}
	if w > n {
		w = n
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			job(i)
		}
	}
	spawn := 0
	if w > 1 {
		var budgetStart time.Time
		if tr != nil {
			budgetStart = time.Now()
		}
		if bulk {
			spawn = par.TryAcquireBulk(w - 1)
		} else {
			spawn = par.TryAcquire(w - 1)
		}
		if tr != nil {
			tr.AddSince(obs.StageBudgetWait, budgetStart)
		}
	}
	// Release via defer: a panic escaping the inline worker (e.g. from a
	// user OnResult callback) must not leak the process-wide spawn budget.
	defer par.Release(spawn)
	var wg sync.WaitGroup
	for k := 0; k < spawn; k++ {
		wg.Add(1)
		//amop:allow-go budgeted spawn: exactly one goroutine per token claimed from par.TryAcquire above
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// resolveModel maps AutoModel to the natural model for the request.
func resolveModel(o Option, m Model, cfg Config) Model {
	if m != AutoModel {
		return m
	}
	if o.Type == Put && !cfg.European {
		return BlackScholesFD
	}
	return Binomial
}

// --- engine -----------------------------------------------------------------

// engine is the per-batch reuse context threaded through PriceBatch and
// Chain: the lattice-model cache and the per-contract repricing memo that
// every worker of one batch shares. One quote's Greeks bumps, implied-vol
// iterations, and headline price all route through it, so no (option, model,
// config) point is ever priced twice within a batch. It is safe for
// concurrent use.
type engine struct {
	models modelCache
	cancel func() error // batch-wide cancellation hook; nil means never
	tier   TierMode     // tier routing policy; set before the pool starts
	trace  *obs.Trace   // span trace from the batch context; nil when untraced

	mu   sync.Mutex
	memo map[priceKey]*priceEntry
}

func newEngine() *engine {
	return &engine{memo: make(map[priceKey]*priceEntry)}
}

// repricingMemo{Hits,Misses} count, process-wide, how often an engine served
// a repricing from its memo versus priced it fresh. A chain computing Greeks
// and implied vols reprices shared points constantly (the IV solver's seed
// and first slope reuse the vega bumps); these counters make that
// amortization observable on /metrics.
var (
	repricingMemoHits = obs.NewCounter("amop_repricing_memo_hits_total",
		"batch repricings served from the engine's per-batch memo")
	repricingMemoMisses = obs.NewCounter("amop_repricing_memo_misses_total",
		"batch repricings priced fresh")
)

// RepricingMemoStats returns the cumulative process-wide repricing-memo hit
// and miss counts.
func RepricingMemoStats() (hits, misses int64) {
	return repricingMemoHits.Load(), repricingMemoMisses.Load()
}

type priceKey struct {
	o   Option
	m   Model
	cfg Config
}

type priceEntry struct {
	once  sync.Once
	price float64
	err   error
}

// run prices one request with panic isolation.
func (e *engine) run(req Request) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			serve.PanicsRecovered.Add(1)
			res = Result{Err: newSolvePanicError(r)}
		}
	}()
	// Admission: an item whose batch is already canceled fails before any
	// model construction or solving. This is what lets an expired deadline
	// shed a half-finished sweep in microseconds.
	if e.cancel != nil {
		if err := e.cancel(); err != nil {
			serve.CtxCancels.Add(1)
			return Result{Err: err}
		}
	}
	if faultinject.Enabled() {
		if act := faultinject.OnSolve(req.Tag); act != (faultinject.Action{}) {
			if act.Delay > 0 {
				time.Sleep(act.Delay)
			}
			if act.Panic {
				panic(fmt.Sprintf("faultinject: injected solver panic (tag %q)", req.Tag))
			}
			if act.NaN {
				// Simulate numerical poison escaping a solver: a NaN price
				// with no error, exactly what the surface-health gate must
				// catch downstream.
				return Result{Price: math.NaN()}
			}
		}
	}
	p, err := e.price(req.Option, resolveModel(req.Option, req.Model, req.Config), req.Config)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		serve.CtxCancels.Add(1)
	}
	return Result{Price: p, Err: err}
}

// dispatch routes one priced point through the engine's tier policy:
// TierAnalytic forces the analytic tier (envelope refusals surface as
// errors), TierAuto promotes eligible vanilla American contracts and counts
// the lattice fallbacks, TierLattice — the zero value — is a straight pass
// to the lattice solvers. The routing is a pure function of (option, config,
// tier), so it composes with the engine's memo: one key always takes one
// route.
func (e *engine) dispatch(o Option, m Model, cfg Config) (float64, error) {
	switch e.tier {
	case TierAnalytic:
		return e.analytic(o, cfg)
	case TierAuto:
		if cfg.Algorithm == Fast && !cfg.European {
			var tierStart time.Time
			if e.trace != nil {
				tierStart = time.Now()
			}
			eligible := analyticEligible(o, cfg)
			if e.trace != nil {
				e.trace.AddSince(obs.StageTier, tierStart)
			}
			if eligible {
				return e.analytic(o, cfg)
			}
			tierFallbacks.Add(1)
			if obs.Enabled() {
				obs.RecordEvent(obs.EvTierFallback, "", 0, "auto tier fell back to lattice")
			}
		}
	}
	if !obs.Enabled() {
		return priceModel(o, m, cfg, &e.models, e.cancel)
	}
	start := time.Now()
	p, err := priceModel(o, m, cfg, &e.models, e.cancel)
	obs.SolveLatency.With("lattice").RecordSince(start)
	e.trace.AddSince(obs.StageSolveLattice, start)
	return p, err
}

// analytic routes one request to the analytic tier, timing the solve into the
// batch trace when one is attached. The tier-labelled solve-latency histogram
// (analytic_cold vs analytic_warm) is recorded inside internal/analytic,
// which knows whether the boundary solve hit its cache.
func (e *engine) analytic(o Option, cfg Config) (float64, error) {
	if e.trace == nil {
		return priceAnalytic(o, cfg)
	}
	start := time.Now()
	p, err := priceAnalytic(o, cfg)
	e.trace.AddSince(obs.StageSolveAnalytic, start)
	return p, err
}

// price is the memoized pricer: identical (option, model, config) requests
// are priced exactly once; concurrent duplicates wait for the first.
func (e *engine) price(o Option, m Model, cfg Config) (float64, error) {
	var memoStart time.Time
	if e.trace != nil {
		memoStart = time.Now()
	}
	k := priceKey{o: o, m: m, cfg: cfg}
	e.mu.Lock()
	ent := e.memo[k]
	if ent == nil {
		ent = &priceEntry{}
		e.memo[k] = ent
		repricingMemoMisses.Add(1)
	} else {
		repricingMemoHits.Add(1)
	}
	e.mu.Unlock()
	if e.trace != nil {
		e.trace.AddSince(obs.StageMemo, memoStart)
	}
	ent.once.Do(func() {
		// Capture panics here, inside the Once, not just in run: the Once
		// is consumed even when its function panics, so a later duplicate
		// would otherwise read a silent (0, nil) from the poisoned entry.
		defer func() {
			if r := recover(); r != nil {
				serve.PanicsRecovered.Add(1)
				ent.err = newSolvePanicError(r)
			}
		}()
		ent.price, ent.err = e.dispatch(o, m, cfg)
	})
	return ent.price, ent.err
}

// priceAmerican mirrors PriceAmerican through the engine's caches.
func (e *engine) priceAmerican(o Option, steps int) (float64, error) {
	cfg := Config{Steps: steps}
	return e.price(o, resolveModel(o, AutoModel, cfg), cfg)
}

// --- model cache ------------------------------------------------------------

// latticeKey identifies a constructed model: the model and every input its
// constructor consumes.
type latticeKey struct {
	model    Model
	prm      option.Params
	steps    int
	lambda   float64
	baseCase int
}

// modelCache shares constructed lattice and bsm models between requests with
// identical lattice parameters. Models are immutable once built (SetBaseCase
// is applied before publication), so cached instances are safe to price from
// concurrently. The zero value is ready to use; a nil *modelCache disables
// caching (every lookup constructs).
type modelCache struct {
	mu     sync.Mutex
	models map[latticeKey]any // *lattice.Model or *bsm.Model, by key.model
	hits   int
}

// Hits reports how many lookups were served from the cache (for tests).
func (c *modelCache) Hits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// lattice returns the Binomial or Trinomial model of p.
func (c *modelCache) lattice(m Model, p option.Params, cfg Config) (*lattice.Model, error) {
	newTree := bopm.New
	if m == Trinomial {
		newTree = topm.New
	}
	return cached(c, latticeKey{model: m, prm: p, steps: cfg.Steps, baseCase: cfg.BaseCase}, func() (*lattice.Model, error) {
		mdl, err := newTree(p, cfg.Steps)
		if err != nil {
			return nil, err
		}
		mdl.SetBaseCase(cfg.BaseCase)
		return mdl, nil
	})
}

func (c *modelCache) bsm(p option.Params, cfg Config) (*bsm.Model, error) {
	return cached(c, latticeKey{model: BlackScholesFD, prm: p, steps: cfg.Steps, lambda: cfg.Lambda, baseCase: cfg.BaseCase}, func() (*bsm.Model, error) {
		mdl, err := bsm.New(p, cfg.Steps, cfg.Lambda)
		if err != nil {
			return nil, err
		}
		mdl.SetBaseCase(cfg.BaseCase)
		return mdl, nil
	})
}

// cached returns c's model for k, building it outside the lock on a miss.
func cached[M any](c *modelCache, k latticeKey, build func() (M, error)) (M, error) {
	if c == nil {
		return build()
	}
	c.mu.Lock()
	if m, ok := c.models[k]; ok {
		c.hits++
		c.mu.Unlock()
		return m.(M), nil
	}
	c.mu.Unlock()
	m, err := build()
	if err != nil {
		return m, err
	}
	c.mu.Lock()
	if c.models == nil {
		c.models = make(map[latticeKey]any)
	}
	if prior, ok := c.models[k]; ok {
		m = prior.(M) // a concurrent builder won; share its instance
	} else {
		c.models[k] = m
	}
	c.mu.Unlock()
	return m, nil
}

// --- chain ------------------------------------------------------------------

// Quote is one cell of a Chain surface.
type Quote struct {
	Strike, Expiry float64
	Price          float64
	Greeks         Greeks  // zero when ChainOptions.SkipGreeks
	ImpliedVol     float64 // zero when ChainOptions.SkipImpliedVol
	Err            error   // per-cell; other cells are unaffected
}

// ChainOptions controls Chain.
type ChainOptions struct {
	// Steps is the lattice resolution for the headline price (default 10000).
	Steps int
	// GreeksSteps and IVSteps are the resolutions for the bump-and-reprice
	// Greeks and the implied-vol round trip; zero selects Steps/4 — the
	// bisection and the five Greek bumps reprice the contract dozens of
	// times, and O(1/T) lattice bias cancels in the differences.
	GreeksSteps, IVSteps int
	// SkipGreeks / SkipImpliedVol drop those columns for a price-only chain.
	SkipGreeks, SkipImpliedVol bool
	// Workers bounds the pool as in BatchOptions.
	Workers int
	// Tier selects the pricing tier, as in BatchOptions: under TierAuto the
	// headline prices, the Greeks bumps and the implied-vol iterations of
	// every in-envelope cell all run on the analytic fast path, which turns
	// a full chain from seconds of lattice work into microseconds per cell.
	Tier TierMode
}

func (o ChainOptions) withDefaults() ChainOptions {
	if o.Steps <= 0 {
		o.Steps = 10_000
	}
	if o.GreeksSteps <= 0 {
		o.GreeksSteps = max(o.Steps/4, 1)
	}
	if o.IVSteps <= 0 {
		o.IVSteps = max(o.Steps/4, 1)
	}
	return o
}

// Chain prices an American option chain — the strikes x expiries grid on one
// underlying — with Greeks and round-trip implied vols, in one batched call.
// The underlying option supplies Type, S, R, V and Y; K and E are overridden
// per cell. Quotes are returned in row-major order: cell (i, j) of the grid
// is Quotes[i*len(expiries)+j]. Each cell prices under its natural model
// (see AutoModel), errors are reported per cell, and the whole grid shares
// one bounded worker pool and one model/price cache.
func Chain(underlying Option, strikes, expiries []float64, opts ChainOptions) []Quote {
	return ChainCtx(context.Background(), underlying, strikes, expiries, opts)
}

// ChainCtx is Chain with a context: cells not yet started fail immediately
// with ctx.Err() once the context is done, and in-flight solves stop within
// one trapezoid of work. Chains are bulk-class work — see
// BatchOptions.Interactive.
func ChainCtx(ctx context.Context, underlying Option, strikes, expiries []float64, opts ChainOptions) []Quote {
	o := opts.withDefaults()
	quotes := make([]Quote, len(strikes)*len(expiries))
	if len(quotes) == 0 {
		return quotes
	}
	eng := newEngine()
	eng.cancel = ctxCancel(ctx)
	eng.tier = o.Tier
	eng.trace = obs.FromContext(ctx)
	runPool(len(quotes), o.Workers, true, eng.trace, func(idx int) {
		i, j := idx/len(expiries), idx%len(expiries)
		quotes[idx] = eng.quote(underlying, strikes[i], expiries[j], o)
	})
	return quotes
}

// quote prices one chain cell with panic isolation.
func (e *engine) quote(underlying Option, strike, expiry float64, opts ChainOptions) (q Quote) {
	q = Quote{Strike: strike, Expiry: expiry}
	defer func() {
		if r := recover(); r != nil {
			serve.PanicsRecovered.Add(1)
			q.Err = fmt.Errorf("amop: panic while quoting K=%v E=%v: %w", strike, expiry, newSolvePanicError(r))
		}
	}()
	if e.cancel != nil {
		if err := e.cancel(); err != nil {
			serve.CtxCancels.Add(1)
			q.Err = err
			return q
		}
	}
	o := underlying
	o.K, o.E = strike, expiry

	price, err := e.priceAmerican(o, opts.Steps)
	if err != nil {
		q.Err = err
		return q
	}
	q.Price = price

	if !opts.SkipGreeks {
		g, err := greeks(o, func(oo Option) (float64, error) {
			return e.priceAmerican(oo, opts.GreeksSteps)
		})
		if err != nil {
			q.Err = err
			return q
		}
		q.Greeks = g
	}

	if !opts.SkipImpliedVol {
		// Round-trip the implied vol from the computed price as the desk
		// sanity check: solving at IVSteps should recover the vol mark.
		iv, err := impliedVolWith(o, price, func(oo Option) (float64, error) {
			return e.priceAmerican(oo, opts.IVSteps)
		})
		if err != nil {
			q.Err = err
			return q
		}
		q.ImpliedVol = iv
	}
	return q
}
