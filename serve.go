// Live pricing server: a continuously-maintained price surface over a
// registered contract book, driven by market-data ticks and queried by
// quote requests. This is the serving layer the ROADMAP's "heavy traffic"
// north star asks for, one level above PriceBatch and ScenarioSweep: where
// the batch engine amortizes one call's redundancy and the sweep engine one
// grid's, the server amortizes redundancy *across a request stream* —
//
//   - incremental repricing: each contract's market inputs (spot, vol, rate)
//     are quantized into buckets (internal/serve.Quantizer), and a tick only
//     marks a contract for re-solve when its quantized inputs actually move
//     to a new cell. Ticks that wander inside a cell re-solve nothing
//     (TickSkips); prices are solved at the cell's representative point, so
//     every tick in a cell is by construction the same pricing problem.
//   - request coalescing: quotes for dirty contracts do not each run their
//     own solve. The first becomes the leader of a repricing flight that
//     collects the entire dirty set into one PriceBatch (sharing the batch
//     engine's dedup plan, lattice-model cache and the process-wide
//     kernel-spectrum cache underneath); concurrent quotes join that flight
//     and wait for its result (CoalescedRequests). The flight's waiter queue
//     is bounded — beyond MaxPending the server sheds load with
//     ErrServerBusy — and the batch itself draws its workers from
//     internal/par's global spawn budget, so a saturated server degrades to
//     serial solves instead of oversubscribing the machine.
//   - bounded staleness: with MaxStaleness > 0, a quote for a dirty contract
//     whose last solve is fresher than the bound is answered immediately from
//     the stale surface (StaleServes) instead of blocking on the flight;
//     MaxStaleness = 0 always blocks until the surface is current.
//   - fault isolation and graceful degradation: every fresh solve passes a
//     surface-health gate (finite, non-negative price) before it is
//     published; a solve that errors, panics, or fails the gate leaves the
//     contract's last-good price pinned and is served from it with
//     ServedQuote.Degraded set. A panicking contract is quarantined — pulled
//     out of repricing flights, its stack kept in a QuarantineRecord — until
//     a tick moves it to a new cell, so one broken contract cannot take its
//     symbol's flights down with it. Per-symbol circuit breakers stop
//     re-solving a symbol whose flights keep failing (N consecutive failures
//     open the breaker; after a backoff one probe flight is admitted), so a
//     persistently failing symbol costs a bounded number of doomed solves
//     instead of one per quote.
//
// The serving counters are process-wide and surface, with every other
// counter, gauge and latency histogram, through WriteMetrics; cmd/amop-serve
// wraps the server in an HTTP daemon that serves it on /metrics.
package amop

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"github.com/nlstencil/amop/internal/obs"
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/serve"
)

// ErrServerBusy is returned by Server.Quote when the repricing flight's
// bounded waiter queue (ServerOptions.MaxPending) is full: the request is
// shed immediately instead of queueing without bound. It is the server's
// backpressure signal; HTTP layers should map it to 503.
var ErrServerBusy = serve.ErrOverloaded

// Market is the live market state of one underlying symbol: the three inputs
// ticks move. Contract terms (strike, expiry, dividend yield, type) are fixed
// at registration; spot, vol and rate are overridden per tick.
type Market struct {
	Spot float64 `json:"spot"`
	Vol  float64 `json:"vol"`
	Rate float64 `json:"rate"`
}

// BookEntry registers one contract with the live pricing server.
type BookEntry struct {
	// Symbol names the underlying; ticks address contracts by symbol. The
	// empty string is a valid symbol (a single-underlying book needs no
	// names). The first entry of each symbol seeds the symbol's market from
	// its Option's S, V and R; later entries on the same symbol share that
	// market state.
	Symbol string
	// Option carries the contract terms. S, V and R serve only as the
	// symbol's market seed (see Symbol); they are overridden by the live
	// market on every solve.
	Option Option
	// Model is the discretization; AutoModel picks the natural model, as in
	// PriceBatch.
	Model Model
	// Config carries steps and algorithm, as in Price. Config.Steps is
	// required (>= 1).
	Config Config
}

// ServerOptions configures NewServer.
type ServerOptions struct {
	// SpotBucket, VolBucket and RateBucket are the quantization bucket
	// widths for the three market inputs (absolute units: price, vol points,
	// rate). A tick is a no-op for every contract whose bucketed inputs do
	// not move; prices are solved at bucket centers, so the worst-case input
	// error is half a bucket per axis. Zero disables quantization on that
	// axis — every change, however small, triggers a re-solve.
	SpotBucket, VolBucket, RateBucket float64
	// MaxStaleness bounds how stale a served quote may be: a quote for a
	// contract marked dirty by a tick is still answered from the old surface
	// if that price is younger than MaxStaleness. Zero (the default) always
	// blocks dirty quotes on a re-solve.
	MaxStaleness time.Duration
	// MaxPending bounds how many quote requests may queue behind an
	// in-flight repricing batch; beyond it Quote fails fast with
	// ErrServerBusy. Zero means unbounded.
	MaxPending int
	// Workers bounds each repricing batch's worker pool, as in BatchOptions.
	Workers int
	// ColdStart skips the initial synchronous pricing of the book. The first
	// quotes then pay the first solve; by default NewServer returns with the
	// whole surface priced.
	ColdStart bool
	// BreakerThreshold is the consecutive-failure count that opens a
	// symbol's circuit breaker; zero selects the default
	// (serve.DefaultBreakerThreshold, 3).
	BreakerThreshold int
	// BreakerBackoff is the initial open interval before a breaker admits a
	// probe flight; each consecutive re-open doubles it up to
	// BreakerMaxBackoff. Zeros select the defaults (100ms, 5s).
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	// Tier selects the pricing tier for every repricing flight, as in
	// BatchOptions: TierAuto serves in-envelope vanilla American contracts
	// from the analytic fast path (amop_tier_analytic_serves_total counts
	// them) and keeps the rest on the lattice.
	Tier TierMode
}

// TickResult summarizes one tick's effect on the book.
type TickResult struct {
	// Moved counts contracts whose quantized inputs changed cell — they are
	// now dirty and will be re-solved by the next repricing flight.
	Moved int
	// Skipped counts contracts whose quantized inputs stayed in their cell —
	// their surface prices remain exactly valid and no work is queued.
	Skipped int
	// Market is the symbol's full market state after the tick applied.
	Market Market
}

// ServedQuote is one answered quote: the price and the exact market point it
// was solved at (the quantization cell's representative), with its solve time
// and freshness flags.
type ServedQuote struct {
	Price float64
	// Market is the representative market point the price was solved at.
	Market Market
	// At is when the price was solved.
	At time.Time
	// Stale reports that the quote was served from a previous surface entry
	// rather than a solve at the live market's cell — under the MaxStaleness
	// bound, after the quoteRounds retry cap, or in degraded mode.
	Stale bool
	// Degraded reports that the quote was served from the contract's pinned
	// last-good price because the fresh solve failed — it errored, panicked
	// (the contract is quarantined), failed the surface-health gate, or its
	// symbol's circuit breaker is open. Degraded implies Stale.
	Degraded bool
}

// QuarantineRecord describes a contract pulled out of repricing flights
// after its solver panicked. The quarantine lasts until a tick moves the
// contract to a new quantization cell (a new pricing problem is worth
// retrying); while it holds, quotes for the contract are served from its
// pinned last-good price with Degraded set, or fail with Err if no good
// price was ever solved.
type QuarantineRecord struct {
	// Contract is the book id (the Quote id) of the quarantined contract.
	Contract int
	// Symbol is the contract's underlying.
	Symbol string
	// At is when the panic was recovered.
	At time.Time
	// Err is the recovered panic as an error (a *SolvePanicError).
	Err error
	// Stack is the goroutine stack captured at the panic site.
	Stack []byte
}

// bookContract is one registered contract plus its surface slot. cur is the
// quantization cell of the live market; priced is the cell the stored price
// was solved in. The contract is dirty when they differ (or nothing has been
// solved yet).
//
// valid/price/pricedRep/at always describe the last solve that passed the
// health gate — the pinned last-good entry degraded serves answer from. A
// failed solve attempt sets err (and quar, when it panicked) and leaves the
// last-good fields untouched, so one bad solve can never overwrite a good
// price with garbage.
type bookContract struct {
	entry BookEntry

	cur    serve.Key
	curRep Market

	valid     bool
	priced    serve.Key
	pricedRep Market
	price     float64
	at        time.Time

	// err is the error of the most recent failed solve attempt for the
	// current cell (nil after a healthy solve). quar is set when that
	// failure was a panic; the contract is then excluded from repricing
	// flights until its cell moves.
	err  error
	quar *QuarantineRecord
}

// Server maintains a live price surface over a contract book. Methods are
// safe for concurrent use: ticks and quotes may race freely.
type Server struct {
	quant        serve.Quantizer
	maxStaleness time.Duration
	workers      int
	tier         TierMode

	mu      sync.Mutex
	book    []bookContract
	markets map[string]Market
	// bySymbol indexes the book by symbol (built once in NewServer), so a
	// tick touches only its own symbol's contracts instead of scanning the
	// whole book under the lock.
	bySymbol map[string][]int
	// breakers holds one circuit breaker per symbol (built once in
	// NewServer; each Breaker has its own lock and is also read outside mu).
	breakers map[string]*serve.Breaker

	flights serve.Coalescer

	// now and flightBarrier are test seams: now supplies timestamps
	// (staleness tests inject a fake clock), flightBarrier — when non-nil —
	// runs after a repricing batch solves and before its write-back, outside
	// the server lock (the mid-batch-tick tests stand in this gap).
	now           func() time.Time
	flightBarrier func()
}

// NewServer registers the book and returns a serving surface. Unless
// ServerOptions.ColdStart is set, the whole book is priced synchronously
// before NewServer returns, so the first quotes are already cache serves.
// Per-contract pricing failures (a put under a call-only model, say) are
// stored in the surface and surfaced by Quote for that contract only.
func NewServer(book []BookEntry, opts ServerOptions) (*Server, error) {
	if len(book) == 0 {
		return nil, errors.New("amop: NewServer needs a non-empty contract book")
	}
	s := &Server{
		quant: serve.Quantizer{
			SpotBucket: opts.SpotBucket,
			VolBucket:  opts.VolBucket,
			RateBucket: opts.RateBucket,
		},
		maxStaleness: max(opts.MaxStaleness, 0),
		workers:      opts.Workers,
		tier:         opts.Tier,
		book:         make([]bookContract, len(book)),
		markets:      make(map[string]Market),
		bySymbol:     make(map[string][]int),
		breakers:     make(map[string]*serve.Breaker),
		now:          time.Now,
	}
	s.flights.MaxWaiters = opts.MaxPending
	for i, e := range book {
		// Forced-analytic entries have no lattice and need no step count;
		// everything else prices on a lattice somewhere (even TierAuto falls
		// back to one), so Steps stays mandatory for them.
		if e.Config.Steps < 1 && e.Config.Algorithm != Analytic {
			return nil, fmt.Errorf("amop: book entry %d: Config.Steps = %d must be >= 1", i, e.Config.Steps)
		}
		m, ok := s.markets[e.Symbol]
		if !ok {
			m = Market{Spot: e.Option.S, Vol: e.Option.V, Rate: e.Option.R}
			s.markets[e.Symbol] = m
			s.breakers[e.Symbol] = &serve.Breaker{
				Threshold:  opts.BreakerThreshold,
				Backoff:    opts.BreakerBackoff,
				MaxBackoff: opts.BreakerMaxBackoff,
			}
		}
		c := bookContract{entry: e}
		c.cur = s.quant.Key(m.Spot, m.Vol, m.Rate)
		c.curRep = s.rep(m)
		s.book[i] = c
		s.bySymbol[e.Symbol] = append(s.bySymbol[e.Symbol], i)
	}
	// A live server makes interactive quote traffic a distinct class from
	// bulk analytics: reserve one spawn token that non-interactive batches,
	// chains and sweeps cannot take, so a machine saturated by a sweep still
	// has parallelism left for repricing flights (which run Interactive).
	par.SetBulkReserve(1)
	if !opts.ColdStart {
		if err := s.Flush(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Server) rep(m Market) Market {
	sp, vo, ra := s.quant.Rep(m.Spot, m.Vol, m.Rate)
	return Market{Spot: sp, Vol: vo, Rate: ra}
}

// Contracts reports the size of the registered book. Quote ids are
// [0, Contracts()).
func (s *Server) Contracts() int { return len(s.book) }

// Market returns the live market state of a symbol.
func (s *Server) Market(symbol string) (Market, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.markets[symbol]
	return m, ok
}

// Quarantined returns the quarantine records of every currently quarantined
// contract (panicking solves pulled out of repricing flights), in book
// order. Records drop off as ticks move their contracts to new cells.
func (s *Server) Quarantined() []QuarantineRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	var recs []QuarantineRecord
	for i := range s.book {
		if q := s.book[i].quar; q != nil {
			recs = append(recs, *q)
		}
	}
	return recs
}

// BreakerState reports a symbol's circuit-breaker state, for monitoring.
func (s *Server) BreakerState(symbol string) (serve.BreakerState, bool) {
	s.mu.Lock()
	b := s.breakers[symbol]
	s.mu.Unlock()
	if b == nil {
		return serve.BreakerClosed, false
	}
	return b.State(), true
}

// Tick ingests a market-data update for one symbol: the symbol's market
// becomes m, and every contract on the symbol whose quantized inputs moved
// to a new cell is marked dirty. Contracts whose inputs stayed in their cell
// keep their surface prices — that skip is the incremental path's entire
// point, and both counts feed the process-wide TickReprices/TickSkips
// counters. Tick never solves anything itself; dirty contracts are re-solved
// by the next quote's repricing flight (or an explicit Flush).
func (s *Server) Tick(symbol string, m Market) (TickResult, error) {
	return s.tick(symbol, func(Market) Market { return m })
}

// TickPartial applies a partial market update: non-nil fields replace the
// symbol's current values, nil fields keep them. The read-modify-write runs
// atomically under the server's lock, so concurrent partial ticks for one
// symbol compose instead of losing each other's fields — this is the merge
// an HTTP tick endpoint with optional fields needs.
func (s *Server) TickPartial(symbol string, spot, vol, rate *float64) (TickResult, error) {
	return s.tick(symbol, func(cur Market) Market {
		if spot != nil {
			cur.Spot = *spot
		}
		if vol != nil {
			cur.Vol = *vol
		}
		if rate != nil {
			cur.Rate = *rate
		}
		return cur
	})
}

// tick applies update to the symbol's market under the lock and re-keys the
// symbol's contracts against the new state.
func (s *Server) tick(symbol string, update func(Market) Market) (TickResult, error) {
	s.mu.Lock()
	cur, ok := s.markets[symbol]
	if !ok {
		s.mu.Unlock()
		return TickResult{}, fmt.Errorf("amop: no contracts registered for symbol %q", symbol)
	}
	m := update(cur)
	s.markets[symbol] = m
	k := s.quant.Key(m.Spot, m.Vol, m.Rate)
	rep := s.rep(m)
	res := TickResult{Market: m}
	for _, i := range s.bySymbol[symbol] {
		c := &s.book[i]
		if c.cur == k {
			res.Skipped++
			continue
		}
		c.cur = k
		c.curRep = rep
		// A new cell is a new pricing problem: release the quarantine and
		// clear the stale failure so the next flight retries this contract.
		c.err = nil
		c.quar = nil
		res.Moved++
	}
	s.mu.Unlock()
	serve.TickReprices.Add(int64(res.Moved))
	serve.TickSkips.Add(int64(res.Skipped))
	if res.Moved > 0 && obs.Enabled() {
		// Only cell-crossing ticks reach the flight recorder: they are the
		// state transitions worth replaying, and the within-bucket skip path
		// stays free of ring traffic.
		obs.RecordEvent(obs.EvTick, symbol, int64(res.Moved), "")
	}
	return res, nil
}

// quoteRounds bounds how many repricing flights one Quote call will run or
// wait on before it stops chasing the market: a symbol ticking across cells
// faster than its book can be solved would otherwise starve every quote (and
// burn solves that are obsolete on arrival). After quoteRounds flights the
// freshest solved surface is served, flagged stale, regardless of
// MaxStaleness.
const quoteRounds = 3

// quoteSampleEvery is the quote-latency sampling interval: one cached serve
// in quoteSampleEvery is timed into obs.QuoteLatency / obs.StalenessAge.
// Must be a power of two (the sample check is a mask). At 1/512 the
// amortized clock-read cost of the sampled calls is well under a nanosecond
// per serve, which keeps telemetry out of the cached-quote latency
// (serve-replay's cached_quote_ns in the seeded benchmark).
const quoteSampleEvery = 512

// Quote answers one contract from the surface; it is QuoteCtx without a
// deadline.
func (s *Server) Quote(id int) (ServedQuote, error) {
	return s.QuoteCtx(context.Background(), id)
}

// QuoteCtx answers one contract from the surface. Clean contracts are served
// directly (the fast path). A dirty contract is either served stale — if its
// last solve is within MaxStaleness — or resolved through a coalesced
// repricing flight that re-solves the whole dirty set in one PriceBatch;
// concurrent quotes share that flight. QuoteCtx retries until the contract's
// surface entry matches the live market, so a tick landing mid-flight simply
// costs one more round — but at most quoteRounds rounds: a market outrunning
// the solver yields the freshest available price, marked Stale, rather than
// blocking forever. With a full waiter queue QuoteCtx fails fast with
// ErrServerBusy.
//
// When the fresh solve cannot be used — it failed the health gate, errored,
// the contract is quarantined after a panic, or the symbol's circuit breaker
// is open — the contract's pinned last-good price is served with Degraded
// set; if no good price was ever solved, the solve's error is returned. A
// canceled ctx stops the wait and returns ctx.Err(); the shared repricing
// flight keeps running for the other quotes waiting on it.
//
// Successful serves are recorded into the per-symbol quote-latency
// histogram and the staleness-age histogram (obs.QuoteLatency,
// obs.StalenessAge) on a sampled basis: every quoteSampleEvery-th cached
// serve is timed, using the cache-serve counter the fast path already pays
// for as the sampling tick. A cached serve is tens of nanoseconds — cheaper
// than a single clock read — so timing every call would cost more than the
// operation being measured; sampling keeps the telemetry-on fast path to two
// atomic loads and 0 allocs while the histogram still sees an unbiased draw
// from the same distribution. Slow serves are captured independently by the
// repricing-flight traces and the solve-latency histograms, which are timed
// on every flight.
func (s *Server) QuoteCtx(ctx context.Context, id int) (ServedQuote, error) {
	if !obs.Enabled() {
		return s.quoteCtx(ctx, id)
	}
	if serve.CacheServes.Load()&(quoteSampleEvery-1) != 0 {
		return s.quoteCtx(ctx, id)
	}
	start := time.Now()
	q, err := s.quoteCtx(ctx, id)
	if err == nil && id >= 0 && id < len(s.book) {
		// The book and its symbols are immutable after NewServer, so the
		// label read needs no lock. Age is clamped at zero: fake-clock test
		// servers can serve entries stamped "in the future".
		now := time.Now()
		obs.QuoteLatency.With(s.book[id].entry.Symbol).Record(int64(now.Sub(start)))
		obs.StalenessAge.Record(int64(now.Sub(q.At)))
	}
	return q, err
}

// quoteCtx is QuoteCtx's uninstrumented body.
func (s *Server) quoteCtx(ctx context.Context, id int) (ServedQuote, error) {
	if id < 0 || id >= len(s.book) {
		return ServedQuote{}, fmt.Errorf("amop: quote id %d out of range [0, %d)", id, len(s.book))
	}
	counted := false
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			serve.CtxCancels.Add(1)
			return ServedQuote{}, err
		}
		s.mu.Lock()
		c := &s.book[id]
		if c.clean() {
			q := c.snapshot(false, false)
			s.mu.Unlock()
			// Only a first-round serve is the fast path; a quote that ran
			// or waited on a flight must not inflate the cache-hit rate.
			if round == 0 {
				serve.CacheServes.Add(1)
			}
			return q, nil
		}
		// No fresh solve will run for this contract right now: it is
		// quarantined, or its symbol's breaker is open (and no probe is
		// due). Serve the pinned last-good price degraded instead of
		// queueing on a flight that would skip it.
		if c.quar != nil || s.breakers[c.entry.Symbol].Blocked(s.now()) {
			return s.serveDegraded(id)
		}
		if c.valid && c.err == nil &&
			(round >= quoteRounds || (s.maxStaleness > 0 && s.now().Sub(c.at) <= s.maxStaleness)) {
			q := c.snapshot(true, false)
			s.mu.Unlock()
			serve.StaleServes.Add(1)
			return q, nil
		}
		if round >= quoteRounds && c.err != nil {
			// The retries are spent and the latest solve attempt failed:
			// degrade onto the last-good price, or surface the failure.
			return s.serveDegraded(id)
		}
		s.mu.Unlock()
		var waitStart time.Time
		if obs.Enabled() {
			waitStart = time.Now()
		}
		joined, err := s.flights.DoCtx(ctx, s.repriceDirty)
		if joined && !waitStart.IsZero() {
			// Only joiners waited on someone else's flight; the leader's
			// time is the solve itself, reported by SolveLatency.
			obs.CoalescerWait.RecordSince(waitStart)
		}
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				serve.CtxCancels.Add(1)
			}
			var pe *serve.PanicError
			if !joined && errors.As(err, &pe) {
				// A panic escaped the flight body itself (not a per-item
				// solver panic — the batch engine confines those); it was
				// recovered by the coalescer, stack attached.
				serve.PanicsRecovered.Add(1)
			}
			return ServedQuote{}, err
		}
		if joined && !counted {
			// Once per request, however many flights the retries span.
			counted = true
			serve.CoalescedRequests.Add(1)
		}
	}
}

// serveDegraded answers a quote no fresh solve will serve: the contract's
// pinned last-good price, flagged stale and degraded, or — when no good
// price was ever solved — its latest failure, or the open circuit if no
// solve has failed. The caller holds s.mu; serveDegraded releases it.
func (s *Server) serveDegraded(id int) (ServedQuote, error) {
	c := &s.book[id]
	sym := c.entry.Symbol
	if c.valid {
		q := c.snapshot(true, true)
		s.mu.Unlock()
		serve.DegradedServes.Add(1)
		obs.RecordEvent(obs.EvDegradedServe, sym, int64(id), "")
		return q, nil
	}
	err := c.err
	s.mu.Unlock()
	if err == nil {
		err = fmt.Errorf("amop: quote %d: circuit open for symbol %q and no last-good price", id, sym)
	}
	return ServedQuote{}, err
}

// clean reports whether the contract's surface entry is its current,
// successfully solved price — the state the fast path serves and flights
// skip. The caller holds s.mu.
func (c *bookContract) clean() bool {
	return c.valid && c.priced == c.cur && c.err == nil
}

// snapshot copies the contract's pinned surface entry; the caller holds
// s.mu.
func (c *bookContract) snapshot(stale, degraded bool) ServedQuote {
	return ServedQuote{Price: c.price, Market: c.pricedRep, At: c.at, Stale: stale, Degraded: degraded}
}

// Flush synchronously re-solves every dirty contract, coalescing with any
// in-flight repricing, and returns once no contract has actionable work
// left: the whole surface matches the live market, except contracts that are
// quarantined or gated by an open circuit breaker (those serve degraded
// until their cell moves or a probe succeeds). Per-contract pricing errors
// are stored in the surface (and reported by Quote); Flush itself only fails
// on backpressure.
func (s *Server) Flush() error {
	for {
		now := s.now()
		s.mu.Lock()
		dirty := false
		for i := range s.book {
			c := &s.book[i]
			if c.actionable(s, now) {
				dirty = true
				break
			}
		}
		s.mu.Unlock()
		if !dirty {
			return nil
		}
		if _, err := s.flights.Do(s.repriceDirty); err != nil {
			return err
		}
	}
}

// Drain blocks until no repricing flight is in progress, or until ctx is
// done. It is the graceful-shutdown hook: stop admitting quotes and ticks
// first, then Drain, and the surface write-backs of in-flight work complete
// before the process exits.
func (s *Server) Drain(ctx context.Context) error {
	return s.flights.Drain(ctx)
}

// actionable reports whether a repricing flight could make progress on this
// contract right now: it needs a solve (dirty, or its last attempt failed)
// and nothing excludes it (quarantine, open breaker). The caller holds
// s.mu. Flight snapshotting uses Breaker.Allow, never this — Allow is the
// one that consumes the half-open probe slot.
func (c *bookContract) actionable(s *Server, now time.Time) bool {
	if c.clean() {
		return false
	}
	if c.quar != nil {
		return false
	}
	return !s.breakers[c.entry.Symbol].Blocked(now)
}

// repriceDirty is the flight body: snapshot the dirty set, solve it as one
// PriceBatch at the cells' representative market points, write the surface
// back. The batch shares the engine's dedup plan and lattice-model cache —
// identical contracts collapse to one solve — and, underneath, the
// process-wide kernel-spectrum cache, so a tick-to-tick re-solve at an
// already-seen step count runs at steady-state cache hit rates. A tick
// landing between snapshot and write-back moves cur ahead of the solved key;
// the write-back then leaves the contract dirty (priced != cur) and the next
// flight picks it up — stale solves are never published as current.
//
// The flight is deliberately not bound to any single caller's context: it is
// a shared resource whose result every coalesced waiter needs, so one
// impatient quote abandoning the wait (DoCtx) must not cancel the solve for
// the rest. The batch runs Interactive — exempt from the bulk spawn reserve —
// because quote latency is the traffic class the reserve protects.
//
// Every result passes the surface-health gate before it is published: an
// errored, panicked, non-finite or negative price leaves the contract's
// last-good entry pinned and records the failure instead. Panics quarantine
// the contract (stack preserved); per-symbol failures feed the symbol's
// circuit breaker.
func (s *Server) repriceDirty() error {
	now := s.now()
	var snapStart time.Time
	if obs.Enabled() {
		snapStart = time.Now()
	}
	s.mu.Lock()
	var (
		ids  []int
		keys []serve.Key
		reps []Market
		reqs []Request
	)
	// Allow consumes the half-open probe slot, so ask once per symbol per
	// flight: either the symbol's whole dirty set rides the probe, or none
	// of it runs.
	allowed := make(map[string]bool)
	for i := range s.book {
		c := &s.book[i]
		if c.clean() {
			continue
		}
		if c.quar != nil {
			continue
		}
		sym := c.entry.Symbol
		ok, asked := allowed[sym]
		if !asked {
			ok = s.breakers[sym].Allow(now)
			allowed[sym] = ok
		}
		if !ok {
			continue
		}
		o := c.entry.Option
		o.S, o.V, o.R = c.curRep.Spot, c.curRep.Vol, c.curRep.Rate
		ids = append(ids, i)
		keys = append(keys, c.cur)
		reps = append(reps, c.curRep)
		reqs = append(reqs, Request{Option: o, Model: c.entry.Model, Config: c.entry.Config, Tag: sym})
	}
	s.mu.Unlock()
	if len(ids) == 0 {
		return nil
	}
	// The flight is the span-traced unit of pricing work: the trace rides
	// the context into the batch engine (stage times for tier decisions,
	// memo lookups, budget waits and solves accumulate from every worker)
	// and is installed as the process-wide active trace for the layers below
	// any context parameter (the FFT kernels, the analytic boundary solver).
	// Finish captures it into the recent ring — and the slow ring, when the
	// flight crossed the slow threshold.
	var tr *obs.Trace
	ctx := context.Background()
	if !snapStart.IsZero() {
		tr = obs.StartTrace("flight", flightLabel(reqs))
		tr.SetItems(len(ids))
		tr.AddSince(obs.StageSnapshot, snapStart)
		ctx = obs.NewContext(ctx, tr)
		defer obs.SetActive(obs.SetActive(tr))
		defer func() {
			snap := tr.Finish()
			obs.RecordEvent(obs.EvReprice, snap.Label, int64(len(ids)), "")
		}()
	}
	res := PriceBatchCtx(ctx, reqs, BatchOptions{Workers: s.workers, Interactive: true, Tier: s.tier})
	if s.flightBarrier != nil {
		s.flightBarrier()
	}
	at := s.now()
	var pubStart time.Time
	if tr != nil {
		pubStart = time.Now()
		defer func() { tr.AddSince(obs.StagePublish, pubStart) }()
	}
	symFailed := make(map[string]bool)
	s.mu.Lock()
	for j, i := range ids {
		c := &s.book[i]
		sym := c.entry.Symbol
		if _, ok := symFailed[sym]; !ok {
			symFailed[sym] = false
		}
		price, err := res[j].Price, res[j].Err
		if err == nil && (math.IsNaN(price) || math.IsInf(price, 0) || price < 0) {
			err = fmt.Errorf("amop: health gate rejected solve for contract %d (symbol %q): price %v is not a finite non-negative value", i, sym, price)
		}
		if err != nil {
			symFailed[sym] = true
			c.err = err
			var spe *SolvePanicError
			if errors.As(err, &spe) {
				c.quar = &QuarantineRecord{Contract: i, Symbol: sym, At: at, Err: err, Stack: spe.Stack}
				obs.RecordEvent(obs.EvQuarantine, sym, int64(i), err.Error())
			}
			continue
		}
		c.price = price
		c.err = nil
		c.quar = nil
		c.valid = true
		c.priced = keys[j]
		c.pricedRep = reps[j]
		c.at = at
	}
	s.mu.Unlock()
	for sym, failed := range symFailed {
		b := s.breakers[sym]
		if !failed {
			if b.Success() {
				obs.RecordEvent(obs.EvBreakerClose, sym, 0, "")
			}
			continue
		}
		if b.Failure(at) {
			serve.CircuitOpens.Add(1)
			obs.RecordEvent(obs.EvBreakerOpen, sym, 0, "")
		}
	}
	return nil
}

// flightLabel names a repricing flight after the symbols it covers, for the
// trace rings and the flight recorder: distinct symbols in request order,
// capped so a wide book cannot bloat the label.
func flightLabel(reqs []Request) string {
	const maxSyms = 4
	var syms []string
	for i := range reqs {
		sym := reqs[i].Tag
		if len(syms) > 0 && syms[len(syms)-1] == sym {
			continue
		}
		dup := false
		for _, s := range syms {
			if s == sym {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if len(syms) == maxSyms {
			return strings.Join(syms, ",") + ",…"
		}
		syms = append(syms, sym)
	}
	return strings.Join(syms, ",")
}
