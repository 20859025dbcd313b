package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/nlstencil/amop"
	"github.com/nlstencil/amop/internal/obs"
	"github.com/nlstencil/amop/internal/par"
)

// serve-replay drives an amop.Server open loop from a schedule computed from
// the seed before the run: every tick is due together with a burst of
// quotes, as clients re-quote after a market move, and each quote's latency
// runs from its due time, so a stall also charges the requests queued behind
// it. Senders sleep until just before a burst and spin the rest of the way:
// the runtime's timer wakes a sleeper up to a millisecond late, which would
// otherwise swamp the microsecond serving path.
const (
	tickRate      = 40   // ticks per second, alternating between the symbols
	quotesPerTick = 100  // quotes due with each tick, uniformly over the book
	serveSteps    = 2000 // lattice resolution of the out-of-envelope contracts
	spinWindow    = 2 * time.Millisecond
	cachedCalls   = 20000
	cachedReps    = 21
)

var serveSymbols = []string{"AAA", "BBB"}

// event is one scheduled request: a tick (id < 0) or a quote of contract id.
type event struct {
	due    time.Duration
	id     int
	symbol string
	market amop.Market
}

// quoteResult is what a sender saw for one quote.
type quoteResult struct {
	id      int
	q       amop.ServedQuote
	err     error
	latency time.Duration // completion minus due time
	fresh   bool          // solved at or after the quote was sent
}

type serveReplay struct {
	c       config
	markets map[string]amop.Market
	book    []amop.BookEntry
}

func newServeReplay(c config) *serveReplay {
	w := &serveReplay{c: c, markets: map[string]amop.Market{}}
	rng := rand.New(rand.NewSource(c.seed))
	for _, sym := range serveSymbols {
		w.markets[sym] = amop.Market{Spot: 120 + 15*rng.Float64(), Vol: 0.19 + 0.04*rng.Float64(), Rate: 0.03}
	}
	w.book = w.makeBook(w.markets)
	return w
}

// makeBook lays out 45 contracts per symbol: 15 strikes x 3 expiries, every
// third strike a put. Two contracts per symbol sit outside the analytic
// envelope (moneyness above 20, expiry beyond 30 years), so TierAuto prices
// them on the lattice.
func (w *serveReplay) makeBook(markets map[string]amop.Market) []amop.BookEntry {
	strikes := w.c.size(15, 2)
	var book []amop.BookEntry
	for _, sym := range serveSymbols {
		m := markets[sym]
		for i := 0; i < strikes; i++ {
			o := amop.Option{S: m.Spot, V: m.Vol, R: m.Rate, Y: 0.01, K: math.Round(m.Spot * (0.85 + 0.3*float64(i)/float64(strikes-1)))}
			if i%3 == 2 {
				o.Type = amop.Put
			}
			for j, e := range []float64{0.25, 0.5, 1} {
				o.E = e
				if i == 0 && j == 0 {
					o.K = math.Round(m.Spot / 25)
				}
				if i == 0 && j == 1 {
					o.K, o.E = math.Round(m.Spot), 32
				}
				book = append(book, amop.BookEntry{Symbol: sym, Option: o, Model: amop.AutoModel, Config: amop.Config{Steps: serveSteps}})
			}
		}
	}
	return book
}

func (w *serveReplay) newServer(book []amop.BookEntry) (*amop.Server, error) {
	return amop.NewServer(book, amop.ServerOptions{
		SpotBucket: 0.25, VolBucket: 0.01, RateBucket: 0.0005, Tier: amop.TierAuto,
	})
}

// schedule builds the open-loop schedule for d: a seeded spot walk with a
// vol move every 25th tick per symbol, each tick followed by its burst of
// quotes on seeded contract ids.
func (w *serveReplay) schedule(d time.Duration) []event {
	rng := rand.New(rand.NewSource(w.c.seed + 1))
	markets := map[string]amop.Market{}
	for k, v := range w.markets {
		markets[k] = v
	}
	var evs []event
	for j := 0; j < int(d.Seconds()*tickRate); j++ {
		sym := serveSymbols[j%len(serveSymbols)]
		m := markets[sym]
		m.Spot += 0.12 * (2*rng.Float64() - 1)
		if (j/len(serveSymbols))%25 == 24 {
			m.Vol += 0.012 * (2*rng.Float64() - 1)
		}
		markets[sym] = m
		due := time.Duration(j) * time.Second / tickRate
		evs = append(evs, event{due: due, id: -1, symbol: sym, market: m})
		for q := 0; q < quotesPerTick; q++ {
			evs = append(evs, event{due: due, id: rng.Intn(len(w.book))})
		}
	}
	return evs
}

// replayed is the raw record of one replay.
type replayed struct {
	quotes  []quoteResult
	tickErr error
	ticks   []time.Duration
	lag     []time.Duration
	elapsed time.Duration
	heap    uint64
	flights []obs.TraceSnapshot
}

// replay sends the schedule from nproc sender goroutines; event k goes to
// sender k mod nproc. It polls the recent-trace ring when collect is set.
func replay(srv *amop.Server, evs []event, collect bool) replayed {
	senders := runtime.NumCPU()
	var (
		mu   sync.Mutex
		rec  replayed
		wg   sync.WaitGroup
		stop = make(chan struct{})
		done = make(chan struct{})
	)
	seen := map[time.Time]bool{}
	poll := func() {
		for _, t := range obs.RecentTraces() {
			if !seen[t.Start] {
				seen[t.Start] = true
				rec.flights = append(rec.flights, t)
			}
		}
	}
	//amop:allow-go heap sampler and trace poller; stopped and joined before replay returns
	go func() {
		defer close(done)
		heapTick := time.NewTicker(heapEvery)
		defer heapTick.Stop()
		pollTick := time.NewTicker(500 * time.Millisecond)
		defer pollTick.Stop()
		for {
			select {
			case <-stop:
				rec.heap = max(rec.heap, sampleHeap())
				if collect {
					poll()
				}
				return
			case <-heapTick.C:
				rec.heap = max(rec.heap, sampleHeap())
			case <-pollTick.C:
				if collect {
					poll()
				}
			}
		}
	}()
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		//amop:allow-go open-loop sender; one per CPU, joined by wg.Wait below
		go func(s int) {
			defer wg.Done()
			// Sized up front so the run's own records do not grow the heap
			// it measures.
			mine := len(evs)/senders + 1
			quotes := make([]quoteResult, 0, mine)
			ticks, lag := make([]time.Duration, 0, mine), make([]time.Duration, 0, mine)
			var tickErr error
			for k := s; k < len(evs); k += senders {
				ev := evs[k]
				due := start.Add(ev.due)
				if d := time.Until(due); d > spinWindow {
					time.Sleep(d - spinWindow)
				}
				for time.Now().Before(due) {
					runtime.Gosched()
				}
				sent := time.Now()
				lag = append(lag, sent.Sub(due))
				if ev.id < 0 {
					if _, err := srv.Tick(ev.symbol, ev.market); err != nil {
						tickErr = err
					}
					ticks = append(ticks, time.Since(sent))
					continue
				}
				q, err := srv.Quote(ev.id)
				done := time.Now()
				quotes = append(quotes, quoteResult{id: ev.id, q: q, err: err, latency: done.Sub(due), fresh: err == nil && !q.At.Before(sent)})
			}
			mu.Lock()
			rec.quotes = append(rec.quotes, quotes...)
			rec.ticks = append(rec.ticks, ticks...)
			rec.lag = append(rec.lag, lag...)
			rec.tickErr = firstErr(rec.tickErr, tickErr)
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	rec.elapsed = time.Since(start)
	close(stop)
	<-done
	return rec
}

// cachedQuoteNs times Quote on a clean contract in a closed loop: the median
// over trials of the mean per call.
func cachedQuoteNs(srv *amop.Server, id, calls int) (float64, error) {
	if err := srv.Flush(); err != nil {
		return 0, err
	}
	var trials []float64
	for t := 0; t < cachedReps; t++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			if _, err := srv.Quote(id); err != nil {
				return 0, err
			}
		}
		trials = append(trials, float64(time.Since(start).Nanoseconds())/float64(calls))
	}
	return quantile(trials, 0.5), nil
}

func (w *serveReplay) run(out *outcome) error {
	if w.c.trace {
		defer par.SetWorkers(par.SetWorkers(1))
	}
	// Set-up is schedule generation plus NewServer, which prices the whole
	// book synchronously. Each repetition serves markets of its own, a vol
	// bucket apart; the last serves the seed's markets and is the server the
	// replay uses.
	d := w.c.duration()
	if w.c.trace {
		d /= 2
	}
	var (
		setup []float64
		srv   *amop.Server
		evs   []event
	)
	for rep := 1; srv == nil; rep++ {
		last := setupsDone(len(setup)+1, sum(setup))
		markets := map[string]amop.Market{}
		for k, m := range w.markets {
			if !last {
				m.Vol += 0.01 * float64(rep)
			}
			markets[k] = m
		}
		start := time.Now()
		evs = w.schedule(d)
		s, err := w.newServer(w.makeBook(markets))
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
		if last {
			srv = s
		}
	}
	runtime.GC()
	obs.Reset()
	before := readCounters()
	rec := replay(srv, evs, w.c.trace)
	after := readCounters()
	if rec.tickErr != nil {
		return rec.tickErr
	}
	l := newLayerRun()
	l.readHistograms()

	var lat, fresh []float64
	for _, r := range rec.quotes {
		out.attempted++
		if r.err != nil {
			out.failed++
			out.problem("quote %d: %v", r.id, r.err)
			continue
		}
		lat = append(lat, ms(r.latency))
		if r.fresh {
			fresh = append(fresh, ms(r.latency))
		}
		o := w.book[r.id].Option
		o.S, o.V, o.R = r.q.Market.Spot, r.q.Market.Vol, r.q.Market.Rate
		if err := checkPrice(o, r.q.Price, priceTol); err != nil {
			out.problem("quote %d: %v", r.id, err)
		}
	}
	maxErr, err := w.reference(rec.quotes)
	if err != nil {
		out.problem("reference: %v", err)
	}
	cached, err := cachedQuoteNs(srv, 2, w.c.size(cachedCalls, 1000))
	if err != nil {
		return err
	}

	m := &out.metrics
	if !w.c.trace {
		// Throughput is answered quotes per second of the replay; the
		// open loop offers quotesPerTick*tickRate.
		addEndToEnd(m, setup, []float64{float64(len(lat)) / max(rec.elapsed, d).Seconds()}, lat, rec.heap)
		m.addDist("fresh_quote_p50_ms", fresh, 0.50)
		m.addDist("fresh_quote_p90_ms", fresh, 0.90)
		m.add("cached_quote_ns", cached, cachedReps)
		m.add("error_rate", ratio(float64(out.failed), float64(out.attempted)), out.attempted)
		m.add("max_abs_err", maxErr, 1)
		return nil
	}

	// Traced run: flights install their own traces, collected from the
	// recent-trace ring; the telemetry's own cost is measured on the
	// cached-quote path with telemetry off and on.
	l.ops = len(lat)
	l.ctr.add(after, before)
	var flightMs []float64
	for _, f := range rec.flights {
		flightMs = append(flightMs, f.TotalMs)
		l.addTrace(f, f.TotalMs)
	}
	obs.SetEnabled(false)
	off, err := cachedQuoteNs(srv, 2, w.c.size(cachedCalls, 1000))
	obs.SetEnabled(true)
	if err != nil {
		return err
	}
	nf := float64(max(len(rec.flights), 1))
	var ticks, lag []float64
	for _, t := range rec.ticks {
		ticks = append(ticks, float64(t)/1e3)
	}
	for _, t := range rec.lag {
		lag = append(lag, ms(t))
	}
	for k, v := range map[string]float64{
		"serve.flights":          float64(len(rec.flights)),
		"serve.flight_p50_ms":    quantile(flightMs, 0.5),
		"serve.flight_p90_ms":    quantile(flightMs, 0.9),
		"serve.snapshot_ms":      l.stages["snapshot"] / nf,
		"serve.publish_ms":       l.stages["publish"] / nf,
		"serve.tick_us_p50":      quantile(ticks, 0.5),
		"serve.tick_us_p99":      quantile(ticks, 0.99),
		"serve.gen_lag_p99_ms":   quantile(lag, 0.99),
		"obs.trace_overhead_pct": 100 * ratio(cached-off, off),
	} {
		l.fixed[k] = v
	}
	isolatedLayers(l.fixed, w.c.tiny)
	l.emit(m)
	return nil
}

// reference re-prices a seeded 1% sample of the non-stale quotes through
// PriceBatch under TierAuto at the market each was solved at; the server
// must have published exactly that price.
func (w *serveReplay) reference(quotes []quoteResult) (float64, error) {
	var reqs []amop.Request
	var want []float64
	rng := rand.New(rand.NewSource(w.c.seed))
	for _, r := range quotes {
		if r.err != nil || r.q.Stale || rng.Intn(100) != 0 {
			continue
		}
		e := w.book[r.id]
		o := e.Option
		o.S, o.V, o.R = r.q.Market.Spot, r.q.Market.Vol, r.q.Market.Rate
		reqs = append(reqs, amop.Request{Option: o, Model: e.Model, Config: e.Config})
		want = append(want, r.q.Price)
	}
	worst := 0.0
	for j, res := range amop.PriceBatch(reqs, amop.BatchOptions{Tier: amop.TierAuto}) {
		if res.Err != nil {
			return 0, res.Err
		}
		worst = math.Max(worst, math.Abs(res.Price-want[j]))
	}
	if worst > priceTol {
		return worst, fmt.Errorf("served vs re-priced quotes differ by %.3g > %g", worst, priceTol)
	}
	return worst, nil
}
