// Batch pricing engine: prices many option contracts concurrently over a
// bounded worker pool, with per-item error isolation and memoization of
// repeated contracts.
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

	"github.com/nlstencil/amop/internal/faultinject"
	"github.com/nlstencil/amop/internal/obs"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/serve"
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
// a contract (same option, model and config) are priced once and shared.
//
// Below the engine's memo, all workers share the process-wide kernel-spectrum
// cache of the FFT fast path: requests that agree on lattice parameters and
// step count (a chain's strikes on one expiry, a surface repriced every
// tick) derive each stencil-symbol power spectrum once and amortize it
// across the whole pool. /metrics (WriteMetrics) exposes the hit rate.
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
// Chain: the per-contract repricing memo that every worker of one batch
// shares. One quote's Greeks base and bumps, implied-vol iterations, and
// headline price all route through it, so no (option, model, config) point
// is ever priced twice within a batch. It is safe for concurrent use.
type engine struct {
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
	once     sync.Once
	price    float64
	err      error
	analytic bool // priced by the analytic tier
	// ts holds the point's delta, gamma and theta when its solve read them
	// off a top row, as every Fast lattice solve does.
	ts topSens
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

// dispatch solves one memo entry's point through the engine's tier policy:
// TierAnalytic forces the analytic tier (envelope refusals surface as
// errors), TierAuto promotes eligible vanilla American contracts and counts
// the lattice fallbacks, TierLattice — the zero value — is a straight pass
// to the lattice solvers, whose Fast solves also leave the point's Greeks in
// ent.ts. The routing is a pure function of (option, config, tier), so it
// composes with the engine's memo: one key always takes one route.
func (e *engine) dispatch(ent *priceEntry, o Option, m Model, cfg Config) {
	switch e.tier {
	case TierAnalytic:
		ent.analytic = true
	case TierAuto:
		if cfg.Algorithm == Fast && !cfg.European {
			var tierStart time.Time
			if e.trace != nil {
				tierStart = time.Now()
			}
			ent.analytic = analyticEligible(o, cfg)
			if e.trace != nil {
				e.trace.AddSince(obs.StageTier, tierStart)
			}
			if !ent.analytic {
				tierFallbacks.Add(1)
				if obs.Enabled() {
					obs.RecordEvent(obs.EvTierFallback, "", 0, "auto tier fell back to lattice")
				}
			}
		}
	}
	if ent.analytic {
		ent.price, ent.err = e.analytic(o, cfg)
		return
	}
	// A request that forces Analytic reaches the analytic tier through
	// priceModel.
	ent.analytic = cfg.Algorithm == Analytic
	if !obs.Enabled() {
		ent.price, ent.err = priceModel(o, m, cfg, e.cancel, &ent.ts)
		return
	}
	start := time.Now()
	ent.price, ent.err = priceModel(o, m, cfg, e.cancel, &ent.ts)
	obs.SolveLatency.With("lattice").RecordSince(start)
	e.trace.AddSince(obs.StageSolveLattice, start)
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
	ent := e.solve(o, m, cfg)
	return ent.price, ent.err
}

// solve returns the memo's entry for the point, solved.
func (e *engine) solve(o Option, m Model, cfg Config) *priceEntry {
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
		e.dispatch(ent, o, m, cfg)
	})
	return ent
}

// sens returns the delta, gamma and theta of o under model m (resolved) at
// cfg's resolution, read off the top row of the point's own solve (see
// sensConfig). That solve is the memo's entry for the point, so a quote's
// implied-vol search, which prices the same point, shares it. An
// analytic-tier point computes them from its cached boundary instead: they
// cost it a quadrature its price does not, so only the Greeks pay it.
func (e *engine) sens(o Option, m Model, cfg Config) (option.Sens, error) {
	cfg = sensConfig(m, cfg)
	ent := e.solve(o, m, cfg)
	switch {
	case ent.err != nil:
		return option.Sens{}, ent.err
	case ent.ts.ok:
		return ent.ts.Sens, nil
	case ent.analytic:
		return analyticSens(o, cfg)
	}
	return option.Sens{}, fmt.Errorf("amop: the %v %v solve read no top row", m, o.Type)
}

// sensConfig is the configuration of the solve that supplies a point's
// Greeks: Fast on the request's model whatever lattice algorithm the
// request runs, at two steps or more on the binomial tree, whose top row
// lies two steps above the apex.
func sensConfig(m Model, cfg Config) Config {
	if cfg.Algorithm != Analytic {
		cfg.Algorithm = Fast
	}
	if m == Binomial {
		cfg.Steps = max(cfg.Steps, 2)
	}
	return cfg
}

// priceAmerican mirrors PriceAmerican through the engine's memo.
func (e *engine) priceAmerican(o Option, steps int) (float64, error) {
	cfg := Config{Steps: steps}
	return e.price(o, resolveModel(o, AutoModel, cfg), cfg)
}

// --- chain ------------------------------------------------------------------

// Quote is one cell of a Chain surface.
type Quote struct {
	Strike, Expiry float64
	Price          float64
	Greeks         Greeks
	ImpliedVol     float64
	Err            error // per-cell; other cells are unaffected
}

// ChainOptions controls Chain.
type ChainOptions struct {
	// Steps is the lattice resolution for the headline price (default
	// 10000). The Greeks and the implied-vol round trip run at a quarter of
	// it (at least 1). The Greeks price five points there: the base solve,
	// whose top rows give delta, gamma and theta, and central vol and rate
	// bumps for vega and rho. The implied-vol Newton search starts on the
	// base and the vol bumps, so it shares them through the batch memo.
	Steps int
	// Tier selects the pricing tier, as in BatchOptions: under TierAuto the
	// headline prices, the Greeks and the implied-vol iterations of every
	// in-envelope cell all run on the analytic fast path, which turns a full
	// chain from seconds of lattice work into microseconds per cell.
	Tier TierMode
}

func (o ChainOptions) withDefaults() ChainOptions {
	if o.Steps <= 0 {
		o.Steps = 10_000
	}
	return o
}

// Chain prices an American option chain — the strikes x expiries grid on one
// underlying — with Greeks and round-trip implied vols, in one batched call.
// The underlying option supplies Type, S, R, V and Y; K and E are overridden
// per cell. Quotes are returned in row-major order: cell (i, j) of the grid
// is Quotes[i*len(expiries)+j]. Each cell prices under its natural model
// (see AutoModel), errors are reported per cell, and the whole grid shares
// one bounded worker pool and one price memo.
func Chain(underlying Option, strikes, expiries []float64, opts ChainOptions) []Quote {
	return ChainCtx(context.Background(), underlying, strikes, expiries, opts)
}

// ChainCtx is Chain with a context: cells not yet started fail immediately
// with ctx.Err() once the context is done, and in-flight solves stop within
// one trapezoid of work. The pool has par.Workers() workers, and chains are
// bulk-class work — see BatchOptions.Interactive.
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
	runPool(len(quotes), 0, true, eng.trace, func(idx int) {
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

	steps := max(opts.Steps/4, 1)
	g, err := e.greeks(o, AutoModel, Config{Steps: steps})
	if err != nil {
		q.Err = err
		return q
	}
	q.Greeks = g

	// Round-trip the implied vol from the computed price as the desk sanity
	// check: solving at the Greeks' resolution should recover the vol mark.
	iv, err := impliedVolWith(o, price, func(oo Option) (float64, error) {
		return e.priceAmerican(oo, steps)
	})
	if err != nil {
		q.Err = err
		return q
	}
	q.ImpliedVol = iv
	return q
}
