package amop

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/nlstencil/amop/internal/faultinject"
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/serve"
)

// withFaults arms the given fault-injection rules for one test and guarantees
// a clean slate afterwards (the gate is process-global).
func withFaults(t *testing.T, rules ...faultinject.Rule) {
	t.Helper()
	faultinject.Reset()
	for _, r := range rules {
		faultinject.Inject(r)
	}
	faultinject.Enable()
	t.Cleanup(faultinject.Reset)
}

// distinctCalls returns n call requests with distinct strikes, so none of
// them share a repricing-memo entry.
func distinctCalls(n, steps int, tag string) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		o := defaultCall()
		o.K = 100 + 5*float64(i)
		reqs[i] = Request{Option: o, Config: Config{Steps: steps}, Tag: tag}
	}
	return reqs
}

// Canceling a batch mid-run: items already priced keep their results, items
// not yet started fail with the context's error, and the spawn budget comes
// back whole.
func TestPriceBatchCtxCancelMidBatch(t *testing.T) {
	reqs := distinctCalls(8, 400, "")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := PriceBatchCtx(ctx, reqs, BatchOptions{
		// Cancel as soon as the first result lands: everything still queued
		// must be shed by the admission check without solving.
		OnResult: func(int, Result) { cancel() },
	})
	if len(res) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(res), len(reqs))
	}
	ok, canceled := 0, 0
	for i, r := range res {
		switch {
		case r.Err == nil:
			if r.Price <= 0 {
				t.Errorf("item %d: healthy result with price %v", i, r.Price)
			}
			ok++
		case errors.Is(r.Err, context.Canceled):
			canceled++
		default:
			t.Errorf("item %d: got %v, want nil or context.Canceled", i, r.Err)
		}
	}
	if ok == 0 {
		t.Error("no item completed before the cancellation")
	}
	if canceled == 0 {
		t.Error("no item was shed by the cancellation")
	}
	if got := par.InUse(); got != 0 {
		t.Fatalf("%d spawn tokens leaked across the canceled batch", got)
	}
}

// An already-expired deadline sheds the whole batch without pricing anything.
func TestPriceBatchCtxExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	before := serve.ReadStats()
	res := PriceBatchCtx(ctx, distinctCalls(4, 400, ""), BatchOptions{})
	for i, r := range res {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("item %d: got %v, want context.DeadlineExceeded", i, r.Err)
		}
	}
	after := serve.ReadStats()
	if d := after.CtxCancels - before.CtxCancels; d < int64(len(res)) {
		t.Errorf("CtxCancels moved by %d, want >= %d", d, len(res))
	}
}

// A solver panic is confined to its item: the result carries a
// *SolvePanicError with the captured stack, the siblings price normally, and
// the spawn budget is fully restored.
func TestPriceBatchPanicIsolationRestoresBudget(t *testing.T) {
	withFaults(t, faultinject.Rule{Kind: faultinject.SolvePanic, Match: "KABOOM"})
	reqs := distinctCalls(4, 400, "")
	boom := defaultCall()
	boom.K = 150
	reqs = append(reqs, Request{Option: boom, Config: Config{Steps: 400}, Tag: "KABOOM"})

	before := serve.ReadStats()
	res := PriceBatch(reqs, BatchOptions{})
	for i := 0; i < 4; i++ {
		if res[i].Err != nil {
			t.Errorf("sibling %d failed: %v", i, res[i].Err)
		}
	}
	var spe *SolvePanicError
	if !errors.As(res[4].Err, &spe) {
		t.Fatalf("panicking item: got %T (%v), want *SolvePanicError", res[4].Err, res[4].Err)
	}
	if s, ok := spe.Value.(string); !ok || !strings.Contains(s, "faultinject") {
		t.Errorf("panic value %v does not identify the injected fault", spe.Value)
	}
	if len(spe.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
	after := serve.ReadStats()
	if after.PanicsRecovered-before.PanicsRecovered < 1 {
		t.Error("PanicsRecovered did not move")
	}
	if got := par.InUse(); got != 0 {
		t.Fatalf("%d spawn tokens leaked across the panic", got)
	}
}

// Canceling a scenario sweep mid-run returns promptly — in-flight solves stop
// within one trapezoid, queued tasks are shed at admission — with the spawn
// budget fully restored.
func TestScenarioSweepCtxCancelMidRun(t *testing.T) {
	// Stretch every solve by a fixed delay so the cancellation lands
	// mid-sweep deterministically, independent of how fast the box prices.
	const perSolve = 40 * time.Millisecond
	withFaults(t, faultinject.Rule{Kind: faultinject.SolveDelay, Delay: perSolve})

	reqs := sweepBook(400)
	var scenarios []Scenario
	for _, b := range []float64{-0.10, -0.05, -0.02, 0.02, 0.05, 0.10} {
		scenarios = append(scenarios, Scenario{Name: fmt.Sprintf("spot%+g", b), Spot: b})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *Sweep, 1)
	start := time.Now()
	go func() { done <- ScenarioSweepCtx(ctx, reqs, scenarios, SweepOptions{}) }()
	time.Sleep(100 * time.Millisecond) // a couple of solves in
	cancel()

	var sw *Sweep
	select {
	case sw = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled sweep did not return")
	}
	// The full sweep is dozens of delayed solves; a prompt cancel returns in
	// roughly the remainder of one solve. The bound is deliberately loose.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("canceled sweep took %v to return", elapsed)
	}
	canceled := 0
	for _, r := range sw.Results {
		if errors.Is(r.Err, context.Canceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("no cell carries the cancellation")
	}
	if got := par.InUse(); got != 0 {
		t.Fatalf("%d spawn tokens leaked across the canceled sweep", got)
	}
}

// robustBook builds a two-symbol book (one contract per symbol) and a warmed
// server with the given options; faults must not be armed yet.
func robustBook(t *testing.T, opts ServerOptions) (*Server, int, int) {
	t.Helper()
	good := defaultCall()
	bad := defaultCall()
	bad.K = 140
	entries := []BookEntry{
		{Symbol: "GOOD", Option: good, Config: Config{Steps: 400}},
		{Symbol: "BAD", Option: bad, Config: Config{Steps: 400}},
	}
	s, err := NewServer(entries, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, 0, 1
}

// The circuit-breaker lifecycle over a live server: a failing symbol's
// breaker opens (quotes degrade onto the pinned last-good price), the healthy
// symbol is untouched, and after the backoff a probe flight closes the
// breaker again.
func TestServerBreakerLifecycle(t *testing.T) {
	faultinject.Reset() // warm the book healthy
	s, goodID, badID := robustBook(t, ServerOptions{
		SpotBucket: 0.25, VolBucket: 0.01, RateBucket: 0.0005,
		BreakerThreshold: 1, BreakerBackoff: 50 * time.Millisecond,
	})
	clock := time.Unix(1_700_000_000, 0)
	s.now = func() time.Time { return clock }
	warm, err := s.Quote(badID)
	if err != nil {
		t.Fatal(err)
	}

	// Poison every BAD solve with NaN: the health gate must reject it and
	// trip the breaker on the first failed flight (threshold 1).
	withFaults(t, faultinject.Rule{Kind: faultinject.SolveNaN, Match: "BAD"})
	before := serve.ReadStats()
	base := Market{Spot: defaultCall().S, Vol: defaultCall().V, Rate: defaultCall().R}
	moved := base
	moved.Spot += 0.30
	if _, err := s.Tick("BAD", moved); err != nil {
		t.Fatal(err)
	}
	q, err := s.Quote(badID)
	if err != nil {
		t.Fatalf("quote under an open breaker must degrade, got error %v", err)
	}
	if !q.Degraded || !q.Stale {
		t.Fatalf("got Degraded=%v Stale=%v, want both true", q.Degraded, q.Stale)
	}
	if q.Price != warm.Price {
		t.Errorf("degraded quote %v is not the pinned last-good price %v", q.Price, warm.Price)
	}
	if st, ok := s.BreakerState("BAD"); !ok || st != serve.BreakerOpen {
		t.Fatalf("BAD breaker state %v, want open", st)
	}
	after := serve.ReadStats()
	if after.CircuitOpens-before.CircuitOpens < 1 {
		t.Error("CircuitOpens did not move")
	}
	if after.DegradedServes-before.DegradedServes < 1 {
		t.Error("DegradedServes did not move")
	}

	// Fault isolation: the healthy symbol reprices and serves normally while
	// its neighbor's breaker is open.
	movedGood := base
	movedGood.Spot += 0.30
	if _, err := s.Tick("GOOD", movedGood); err != nil {
		t.Fatal(err)
	}
	if q, err := s.Quote(goodID); err != nil || q.Degraded {
		t.Fatalf("healthy symbol: got (%+v, %v), want a clean serve", q, err)
	}
	if st, _ := s.BreakerState("GOOD"); st != serve.BreakerClosed {
		t.Fatalf("GOOD breaker state %v, want closed", st)
	}

	// Heal the solver and let the backoff elapse: the next quote rides the
	// half-open probe flight, the solve succeeds, and the breaker closes.
	faultinject.Reset()
	clock = clock.Add(200 * time.Millisecond)
	q, err = s.Quote(badID)
	if err != nil {
		t.Fatal(err)
	}
	if q.Degraded || q.Stale {
		t.Fatalf("got Degraded=%v Stale=%v after the probe healed, want a fresh serve", q.Degraded, q.Stale)
	}
	if st, _ := s.BreakerState("BAD"); st != serve.BreakerClosed {
		t.Fatalf("BAD breaker state %v after a successful probe, want closed", st)
	}
}

// A panicking contract is quarantined — served degraded from its pinned
// last-good price, excluded from further flights, stack preserved — until a
// tick moves its cell, which clears the quarantine and reprices it.
func TestServerQuarantineAndRecovery(t *testing.T) {
	faultinject.Reset() // warm the book healthy
	s, _, badID := robustBook(t, ServerOptions{
		SpotBucket: 0.25, VolBucket: 0.01, RateBucket: 0.0005,
	})
	warm, err := s.Quote(badID)
	if err != nil {
		t.Fatal(err)
	}

	withFaults(t, faultinject.Rule{Kind: faultinject.SolvePanic, Match: "BAD"})
	before := serve.ReadStats()
	base := Market{Spot: defaultCall().S, Vol: defaultCall().V, Rate: defaultCall().R}
	moved := base
	moved.Spot += 0.30
	if _, err := s.Tick("BAD", moved); err != nil {
		t.Fatal(err)
	}
	q, err := s.Quote(badID)
	if err != nil {
		t.Fatalf("quote for a quarantined contract must degrade, got error %v", err)
	}
	if !q.Degraded {
		t.Fatal("quote after a solver panic is not Degraded")
	}
	if q.Price != warm.Price {
		t.Errorf("degraded quote %v is not the pinned last-good price %v", q.Price, warm.Price)
	}
	recs := s.Quarantined()
	if len(recs) != 1 {
		t.Fatalf("quarantined %d contracts, want 1", len(recs))
	}
	r := recs[0]
	if r.Contract != badID || r.Symbol != "BAD" {
		t.Errorf("quarantine record %+v, want contract %d symbol BAD", r, badID)
	}
	var spe *SolvePanicError
	if !errors.As(r.Err, &spe) {
		t.Fatalf("quarantine error %T (%v), want *SolvePanicError", r.Err, r.Err)
	}
	if len(r.Stack) == 0 {
		t.Error("quarantine record carries no stack")
	}
	// One panic is below the default breaker threshold: the quarantine, not
	// the breaker, is what holds the contract out of flights.
	if st, _ := s.BreakerState("BAD"); st != serve.BreakerClosed {
		t.Fatalf("BAD breaker state %v after one panic, want closed", st)
	}
	if after := serve.ReadStats(); after.PanicsRecovered-before.PanicsRecovered < 1 {
		t.Error("PanicsRecovered did not move")
	}

	// Heal the solver and move the cell: a new pricing problem is worth
	// retrying, so the tick lifts the quarantine and the next quote solves.
	faultinject.Reset()
	moved.Spot += 0.30
	if _, err := s.Tick("BAD", moved); err != nil {
		t.Fatal(err)
	}
	q, err = s.Quote(badID)
	if err != nil {
		t.Fatal(err)
	}
	if q.Degraded || q.Stale {
		t.Fatalf("got Degraded=%v Stale=%v after recovery, want a fresh serve", q.Degraded, q.Stale)
	}
	if recs := s.Quarantined(); len(recs) != 0 {
		t.Fatalf("%d contracts still quarantined after the cell moved", len(recs))
	}
	if got := par.InUse(); got != 0 {
		t.Fatalf("%d spawn tokens leaked", got)
	}
}

// A canceled quote stops waiting without poisoning the shared repricing
// flight: the flight completes for everyone else and the next quote serves
// from the repriced surface.
func TestServerQuoteCtxCanceledMidFlight(t *testing.T) {
	faultinject.Reset()
	s, _, badID := robustBook(t, ServerOptions{
		SpotBucket: 0.25, VolBucket: 0.01, RateBucket: 0.0005,
	})
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.flightBarrier = func() {
		once.Do(func() { close(inFlight) })
		<-release
	}
	base := Market{Spot: defaultCall().S, Vol: defaultCall().V, Rate: defaultCall().R}
	moved := base
	moved.Spot += 0.30
	if _, err := s.Tick("BAD", moved); err != nil {
		t.Fatal(err)
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.Quote(badID)
		leaderDone <- err
	}()
	<-inFlight // the leader's flight has solved and is parked pre-write-back

	ctx, cancel := context.WithCancel(context.Background())
	joinerDone := make(chan error, 1)
	go func() {
		_, err := s.QuoteCtx(ctx, badID)
		joinerDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the joiner park on the flight
	cancel()
	select {
	case err := <-joinerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled joiner: got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled joiner kept waiting on the flight")
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader after a joiner canceled: %v", err)
	}
	s.flightBarrier = nil
	if q, err := s.Quote(badID); err != nil || q.Stale || q.Degraded {
		t.Fatalf("surface after the abandoned flight: got (%+v, %v), want a fresh serve", q, err)
	}
	if got := par.InUse(); got != 0 {
		t.Fatalf("%d spawn tokens leaked", got)
	}
}

// TestServeChaosSmoke is the CI chaos gate: a live server over a three-symbol
// book where every solve for one symbol panics and every solve for another is
// slowed, driven through tick/quote rounds. Every quote must be answered —
// degraded where the faults land, fresh elsewhere — with no spawn-budget
// leak. The full replay lives in the serve-chaos harness experiment.
func TestServeChaosSmoke(t *testing.T) {
	const steps = 400
	syms := []string{"CHAOS-GOOD", "CHAOS-PANIC", "CHAOS-SLOW"}
	reqs := sweepBook(steps)
	entries := make([]BookEntry, 0, len(reqs)*len(syms))
	for _, sym := range syms {
		for _, r := range reqs {
			entries = append(entries, BookEntry{Symbol: sym, Option: r.Option, Model: r.Model, Config: r.Config})
		}
	}
	faultinject.Reset() // warm healthy: degraded mode needs a last-good price
	s, err := NewServer(entries, ServerOptions{SpotBucket: 0.25, VolBucket: 0.01, RateBucket: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	withFaults(t,
		faultinject.Rule{Kind: faultinject.SolvePanic, Match: "CHAOS-PANIC"},
		faultinject.Rule{Kind: faultinject.SolveDelay, Match: "CHAOS-SLOW", Delay: 5 * time.Millisecond},
	)

	before := serve.ReadStats()
	base := Market{Spot: defaultCall().S, Vol: defaultCall().V, Rate: defaultCall().R}
	degraded := map[string]int{}
	sawQuarantine := false
	for round := 0; round < 5; round++ {
		base.Spot += 0.30
		for _, sym := range syms {
			if _, err := s.Tick(sym, base); err != nil {
				t.Fatalf("round %d: tick %s: %v", round, sym, err)
			}
		}
		for id := range entries {
			q, err := s.Quote(id)
			if err != nil {
				t.Fatalf("round %d: quote %d (%s): %v", round, id, entries[id].Symbol, err)
			}
			if q.Degraded {
				degraded[entries[id].Symbol]++
			}
		}
		// Quarantine is transient by design — the next round's tick moves the
		// cell and lifts it, and once the breaker opens no flight panics at
		// all — so observe it inside the round, not at the end.
		sawQuarantine = sawQuarantine || len(s.Quarantined()) > 0
	}
	if degraded["CHAOS-PANIC"] == 0 {
		t.Error("the panicking symbol never served degraded")
	}
	if degraded["CHAOS-GOOD"] != 0 {
		t.Errorf("the healthy symbol served degraded %d times", degraded["CHAOS-GOOD"])
	}
	if degraded["CHAOS-SLOW"] != 0 {
		t.Errorf("the slow symbol served degraded %d times", degraded["CHAOS-SLOW"])
	}
	if !sawQuarantine {
		t.Error("no contract was ever quarantined under injected panics")
	}
	if after := serve.ReadStats(); after.PanicsRecovered-before.PanicsRecovered < 1 {
		t.Error("PanicsRecovered did not move")
	}
	if got := par.InUse(); got != 0 {
		t.Fatalf("%d spawn tokens leaked across the chaos replay", got)
	}
}
