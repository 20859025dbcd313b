package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/nlstencil/amop"
	"github.com/nlstencil/amop/internal/faultinject"
	"github.com/nlstencil/amop/internal/obs"
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/serve"
)

// The serve-chaos experiment drives the live pricing server through a
// tick/quote replay while fault injection breaks part of the book: every
// solve for one symbol panics, and every solve for another is slowed 10x.
// The claim under test is the robustness stack's, end to end — panics are
// confined to their contract (quarantine + per-item recover), the panicking
// symbol's circuit breaker opens and its quotes degrade onto pinned
// last-good prices instead of erroring, the slow symbol stays correct and
// merely pays latency, the healthy symbol is untouched, and when the dust
// settles no spawn-budget token has leaked.

func init() {
	register(Experiment{"serve-chaos", "live server availability under injected solver panics and slowdowns", serveChaos})
}

// chaos symbols: one third of the book panics on every solve, one third is
// slowed, one third stays healthy. The names are the faultinject match keys.
const (
	chaosPanicSym = "CHAOS-PANIC"
	chaosSlowSym  = "CHAOS-SLOW"
	chaosGoodSym  = "CHAOS-GOOD"
)

// chaosBook builds the 45-contract book: 15 strikes x 3 expiries on one
// underlying, with every third strike an American put (BSM fast path) so the
// replay exercises both solver families.
func chaosBook(steps int) []amop.Request {
	base := amop.Option{S: 127.62, R: 0.00163, V: 0.21, Y: 0.0163}
	var reqs []amop.Request
	for i := 0; i < 15; i++ {
		o := base
		o.K = 100 + 4*float64(i)
		if i%3 == 2 {
			o.Type = amop.Put
		}
		for _, e := range []float64{0.25, 0.5, 1.0} {
			o.E = e
			reqs = append(reqs, amop.Request{
				Option: o,
				Model:  amop.AutoModel,
				Config: amop.Config{Steps: steps},
			})
		}
	}
	return reqs
}

// percentile returns the p-quantile of lat in milliseconds.
func percentile(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx].Nanoseconds()) / 1e6
}

func serveChaos(cfg Config) ([]*Table, error) {
	steps := 1000
	if steps > cfg.MaxT {
		steps = cfg.MaxT
	}
	const (
		rounds        = 10
		quotesPerTick = 48
		workers       = 8
		slowdown      = 10
	)
	book := chaosBook(steps)
	syms := []string{chaosGoodSym, chaosPanicSym, chaosSlowSym}
	entries := make([]amop.BookEntry, len(book))
	for i, r := range book {
		entries[i] = amop.BookEntry{
			Symbol: syms[i%len(syms)],
			Option: r.Option, Model: r.Model, Config: r.Config,
		}
	}

	// Warm the surface healthy first: degraded mode serves pinned last-good
	// prices, and there is no last-good to pin if the symbol was born broken.
	faultinject.Reset()
	defer faultinject.Reset()
	srv, err := amop.NewServer(entries, amop.ServerOptions{
		SpotBucket: 0.25, VolBucket: 0.01, RateBucket: 0.0005,
	})
	if err != nil {
		return nil, err
	}

	// Calibrate the slow symbol's delay off a real solve so "10x" tracks the
	// machine instead of a hardcoded sleep. The probe runs against the caches
	// NewServer just warmed — the steady-state tick-to-tick solve cost.
	probe := book[0]
	solveStart := time.Now()
	if res := amop.PriceBatch([]amop.Request{probe}, amop.BatchOptions{}); res[0].Err != nil {
		return nil, res[0].Err
	}
	delay := (slowdown - 1) * time.Since(solveStart)
	if delay < time.Millisecond {
		delay = time.Millisecond
	}

	faultinject.Inject(faultinject.Rule{Kind: faultinject.SolvePanic, Match: chaosPanicSym})
	faultinject.Inject(faultinject.Rule{Kind: faultinject.SolveDelay, Match: chaosSlowSym, Delay: delay})
	faultinject.Enable()

	// Arm the slow-solve tripwire at half the injected delay: every
	// CHAOS-SLOW repricing flight must cross it and land in the slow-trace
	// ring with its per-stage breakdown — the same capture /debug/slow
	// serves on a live daemon.
	obs.Reset()
	prevThresh := obs.SetSlowThreshold(delay / 2)
	defer obs.SetSlowThreshold(prevThresh)

	type symStats struct {
		quotes, degraded, stale int
		lat                     []time.Duration
	}
	stats := map[string]*symStats{}
	for _, s := range syms {
		stats[s] = &symStats{}
	}
	before := serve.ReadStats()

	rng := rand.New(rand.NewSource(7))
	base := amop.Market{Spot: book[0].Option.S, Vol: book[0].Option.V, Rate: book[0].Option.R}
	markets := map[string]amop.Market{}
	for _, s := range syms {
		markets[s] = base
	}
	var mu sync.Mutex
	for round := 0; round < rounds; round++ {
		// Move every symbol across a spot bucket each round, so each round
		// dirties the whole book and forces repricing flights into the armed
		// faults.
		for _, sym := range syms {
			m := markets[sym]
			m.Spot += 0.30 + 0.05*rng.Float64()
			markets[sym] = m
			if _, err := srv.Tick(sym, m); err != nil {
				return nil, fmt.Errorf("round %d: tick %s: %w", round, sym, err)
			}
		}
		ids := make([]int, quotesPerTick)
		for j := range ids {
			ids[j] = rng.Intn(len(entries))
		}
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		next := 0
		var nextMu sync.Mutex
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					nextMu.Lock()
					j := next
					next++
					nextMu.Unlock()
					if j >= len(ids) {
						return
					}
					id := ids[j]
					sym := entries[id].Symbol
					start := time.Now()
					q, err := srv.Quote(id)
					if err != nil {
						errs <- fmt.Errorf("round %d: quote %d (%s): %w", round, id, sym, err)
						return
					}
					mu.Lock()
					st := stats[sym]
					st.quotes++
					st.lat = append(st.lat, time.Since(start))
					if q.Degraded {
						st.degraded++
					} else if q.Stale {
						st.stale++
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errs:
			// Availability is the experiment's whole claim: any quote error
			// under chaos — panicking symbol included — is a failure.
			return nil, err
		default:
		}
	}

	faultinject.Reset()
	after := serve.ReadStats()
	quarantined := len(srv.Quarantined())
	if leaked := par.InUse(); leaked != 0 {
		return nil, fmt.Errorf("spawn budget leak: %d tokens still held after the replay", leaked)
	}

	// The telemetry claim riding along: the slowed symbol's flights crossed
	// the tripwire and were captured with stage attribution.
	// A flight's label lists every symbol it covered, so match by substring.
	slowCaptured := 0
	for _, tr := range obs.SlowTraces() {
		if strings.Contains(tr.Label, chaosSlowSym) {
			slowCaptured++
		}
	}
	if slowCaptured == 0 {
		return nil, fmt.Errorf("no %s flight crossed the %v slow-solve tripwire — slow-trace capture is broken", chaosSlowSym, delay/2)
	}

	avail := &Table{
		ID:    "serve-chaos",
		Title: fmt.Sprintf("quote availability under injected faults: %d contracts x 3 symbols, %d rounds x %d quotes at T=%d", len(entries), rounds, quotesPerTick, steps),
		Note: fmt.Sprintf("every %s solve panics and every %s solve sleeps +%v (~%dx); every quote must still be answered — "+
			"degraded = served from the pinned last-good price (panicking symbol after its breaker opens), "+
			"stale = healthy surface served past its cell under the retry cap", chaosPanicSym, chaosSlowSym, delay.Round(time.Millisecond), slowdown),
		Header: []string{"symbol", "quotes", "ok", "degraded", "stale", "p50_ms", "p99_ms"},
	}
	for _, sym := range syms {
		st := stats[sym]
		avail.Rows = append(avail.Rows, []string{
			sym, fmt.Sprint(st.quotes), fmt.Sprint(st.quotes - st.degraded - st.stale),
			fmt.Sprint(st.degraded), fmt.Sprint(st.stale),
			fmt.Sprintf("%.4g", percentile(st.lat, 0.50)), fmt.Sprintf("%.4g", percentile(st.lat, 0.99)),
		})
	}

	counters := &Table{
		ID:    "serve-chaos-counters",
		Title: "robustness counters over the chaos replay",
		Note: "panics_recovered = solver panics confined to their contract; circuit_opens = per-symbol breaker trips; " +
			"quarantined = contracts currently pulled from repricing flights (stacks preserved); budget_in_use = spawn " +
			"tokens still held at the end (must be 0); slow_traces = " + chaosSlowSym + " flights captured by the " +
			"slow-solve tripwire with per-stage breakdowns (what /debug/slow serves live; must be > 0)",
		Header: []string{"panics_recovered", "degraded_serves", "circuit_opens", "quarantined", "budget_in_use", "slow_traces"},
		Rows: [][]string{{
			fmt.Sprint(after.PanicsRecovered - before.PanicsRecovered),
			fmt.Sprint(after.DegradedServes - before.DegradedServes),
			fmt.Sprint(after.CircuitOpens - before.CircuitOpens),
			fmt.Sprint(quarantined),
			fmt.Sprint(par.InUse()),
			fmt.Sprint(slowCaptured),
		}},
	}
	return []*Table{avail, counters}, nil
}
