package amop

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nlstencil/amop/internal/serve"
)

// serveTestBook builds a small two-symbol book: calls and a put on "AAA",
// one call on "BBB", all at the given resolution.
func serveTestBook(steps int) []BookEntry {
	aaa := Option{Type: Call, S: 127.62, K: 130, R: 0.00163, V: 0.21, Y: 0.0163, E: 1.0}
	put := aaa
	put.Type, put.K = Put, 120
	bbb := Option{Type: Call, S: 54.10, K: 55, R: 0.00163, V: 0.33, Y: 0, E: 0.5}
	k125 := aaa
	k125.K = 125
	return []BookEntry{
		{Symbol: "AAA", Option: aaa, Model: AutoModel, Config: Config{Steps: steps}},
		{Symbol: "AAA", Option: k125, Model: AutoModel, Config: Config{Steps: steps}},
		{Symbol: "AAA", Option: put, Model: AutoModel, Config: Config{Steps: steps}},
		{Symbol: "BBB", Option: bbb, Model: AutoModel, Config: Config{Steps: steps}},
	}
}

// priceEntryAt prices a book entry directly (no server) at a market point.
func priceEntryAt(t *testing.T, e BookEntry, m Market) float64 {
	t.Helper()
	o := e.Option
	o.S, o.V, o.R = m.Spot, m.Vol, m.Rate
	p, err := Price(o, resolveModel(o, e.Model, e.Config), e.Config)
	if err != nil {
		t.Fatalf("direct price: %v", err)
	}
	return p
}

func TestServerQuotesMatchDirectPricing(t *testing.T) {
	book := serveTestBook(512)
	before := serve.ReadStats()
	s, err := NewServer(book, ServerOptions{SpotBucket: 0.25, VolBucket: 0.01, RateBucket: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < s.Contracts(); id++ {
		q, err := s.Quote(id)
		if err != nil {
			t.Fatalf("quote %d: %v", id, err)
		}
		if q.Stale {
			t.Errorf("quote %d stale on a freshly priced surface", id)
		}
		if want := priceEntryAt(t, book[id], q.Market); q.Price != want {
			t.Errorf("quote %d: price %v, want %v (solved at %+v)", id, q.Price, want, q.Market)
		}
	}
	after := serve.ReadStats()
	if got := after.CacheServes - before.CacheServes; got < int64(s.Contracts()) {
		t.Errorf("cache serves advanced by %d, want >= %d", got, s.Contracts())
	}
}

func TestServerTickSkipsInsideBucketRepricesAcross(t *testing.T) {
	book := serveTestBook(512)
	s, err := NewServer(book, ServerOptions{SpotBucket: 0.25, VolBucket: 0.01, RateBucket: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	q0, err := s.Quote(0)
	if err != nil {
		t.Fatal(err)
	}

	// Within-bucket wander: 127.62 -> 127.70 stays in the [127.50, 127.75)
	// spot cell, and vol/rate are untouched — nothing moves, nothing dirties.
	before := serve.ReadStats()
	res, err := s.Tick("AAA", Market{Spot: 127.70, Vol: 0.21, Rate: 0.00163})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 0 || res.Skipped != 3 {
		t.Fatalf("within-bucket tick: moved %d skipped %d, want 0/3", res.Moved, res.Skipped)
	}
	q1, err := s.Quote(0)
	if err != nil {
		t.Fatal(err)
	}
	if q1.Price != q0.Price || q1.Market != q0.Market || q1.At != q0.At {
		t.Errorf("within-bucket tick disturbed the surface: %+v vs %+v", q1, q0)
	}
	after := serve.ReadStats()
	if d := after.TickSkips - before.TickSkips; d != 3 {
		t.Errorf("TickSkips advanced by %d, want 3", d)
	}
	if d := after.TickReprices - before.TickReprices; d != 0 {
		t.Errorf("TickReprices advanced by %d, want 0", d)
	}

	// Cross-bucket move: every AAA contract dirties; BBB is untouched.
	res, err = s.Tick("AAA", Market{Spot: 131.00, Vol: 0.21, Rate: 0.00163})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 3 || res.Skipped != 0 {
		t.Fatalf("cross-bucket tick: moved %d skipped %d, want 3/0", res.Moved, res.Skipped)
	}
	q2, err := s.Quote(0)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Market.Spot != 131.125 { // floor(131.00/0.25) = 524 -> center 131.125
		t.Errorf("re-solved at spot %v, want the new cell center 131.125", q2.Market.Spot)
	}
	if want := priceEntryAt(t, book[0], q2.Market); q2.Price != want {
		t.Errorf("re-solved price %v, want %v", q2.Price, want)
	}

	if _, err := s.Tick("ZZZ", Market{Spot: 1}); err == nil {
		t.Error("tick for an unregistered symbol should fail")
	}
}

func TestServerTickPartialComposes(t *testing.T) {
	book := serveTestBook(64)
	s, err := NewServer(book, ServerOptions{SpotBucket: 0.25, VolBucket: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	spot, vol := 131.0, 0.26
	res, err := s.TickPartial("AAA", &spot, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Market != (Market{Spot: 131.0, Vol: 0.21, Rate: 0.00163}) {
		t.Fatalf("spot-only tick: market %+v", res.Market)
	}
	res, err = s.TickPartial("AAA", nil, &vol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Market != (Market{Spot: 131.0, Vol: 0.26, Rate: 0.00163}) {
		t.Fatalf("vol-only tick did not keep the spot: market %+v", res.Market)
	}

	// Concurrent partial ticks for one symbol must compose: whichever order
	// they land in, the final market carries both updates.
	spot2, vol2 := 140.0, 0.31
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := s.TickPartial("AAA", &spot2, nil, nil); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := s.TickPartial("AAA", nil, &vol2, nil); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if m, _ := s.Market("AAA"); m != (Market{Spot: 140.0, Vol: 0.31, Rate: 0.00163}) {
		t.Errorf("concurrent partial ticks lost a field: market %+v", m)
	}

	if _, err := s.TickPartial("ZZZ", &spot, nil, nil); err == nil {
		t.Error("partial tick for an unregistered symbol should fail")
	}
}

func TestServerMaxStalenessZeroAlwaysResolves(t *testing.T) {
	book := serveTestBook(512)
	s, err := NewServer(book, ServerOptions{SpotBucket: 0.25}) // MaxStaleness = 0
	if err != nil {
		t.Fatal(err)
	}
	before := serve.ReadStats()
	if _, err := s.Tick("AAA", Market{Spot: 133.00, Vol: 0.21, Rate: 0.00163}); err != nil {
		t.Fatal(err)
	}
	q, err := s.Quote(0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Stale {
		t.Error("MaxStaleness=0 must block on a re-solve, not serve stale")
	}
	if q.Market.Spot != 133.125 {
		t.Errorf("served spot %v, want the fresh cell center 133.125", q.Market.Spot)
	}
	after := serve.ReadStats()
	if d := after.StaleServes - before.StaleServes; d != 0 {
		t.Errorf("StaleServes advanced by %d under MaxStaleness=0", d)
	}
}

func TestServerStalenessBound(t *testing.T) {
	book := serveTestBook(512)
	s, err := NewServer(book, ServerOptions{
		SpotBucket: 0.25, MaxStaleness: time.Hour, ColdStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	s.now = func() time.Time { return now }
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	old, err := s.Quote(0)
	if err != nil {
		t.Fatal(err)
	}

	before := serve.ReadStats()
	if _, err := s.Tick("AAA", Market{Spot: 133.00, Vol: 0.21, Rate: 0.00163}); err != nil {
		t.Fatal(err)
	}
	// Within the bound: the dirty contract serves its previous price, marked
	// stale, with no blocking re-solve.
	now = now.Add(30 * time.Minute)
	q, err := s.Quote(0)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Stale || q.Price != old.Price || q.Market != old.Market {
		t.Errorf("want the old surface served stale, got %+v (old %+v)", q, old)
	}
	if d := serve.ReadStats().StaleServes - before.StaleServes; d != 1 {
		t.Errorf("StaleServes advanced by %d, want 1", d)
	}

	// Beyond the bound: the quote blocks on the re-solve.
	now = now.Add(time.Hour)
	q2, err := s.Quote(0)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Stale {
		t.Error("beyond MaxStaleness the quote must re-solve")
	}
	if q2.Market.Spot != 133.125 || !q2.At.Equal(now) {
		t.Errorf("re-solve at %+v / %v, want spot 133.125 at the fake clock", q2.Market, q2.At)
	}
}

// TestServerTickMidFlight pins the write-back rule: a tick landing between a
// flight's solve and its write-back must leave the contract dirty, so the
// stale solve is never published as current and the quote's retry loop picks
// up the newest market.
func TestServerTickMidFlight(t *testing.T) {
	book := serveTestBook(256)[:1]
	s, err := NewServer(book, ServerOptions{SpotBucket: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	var flights atomic.Int32
	var once sync.Once
	s.flightBarrier = func() {
		flights.Add(1)
		once.Do(func() {
			// First flight solved for spot 135.10; move the market again
			// before it writes back.
			if _, err := s.Tick("AAA", Market{Spot: 140.10, Vol: 0.21, Rate: 0.00163}); err != nil {
				t.Errorf("mid-flight tick: %v", err)
			}
		})
	}
	if _, err := s.Tick("AAA", Market{Spot: 135.10, Vol: 0.21, Rate: 0.00163}); err != nil {
		t.Fatal(err)
	}
	q, err := s.Quote(0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Market.Spot != 140.125 { // floor(140.10/0.25) = 560 -> center 140.125
		t.Errorf("served spot %v, want the post-tick cell center 140.125", q.Market.Spot)
	}
	if want := priceEntryAt(t, book[0], q.Market); q.Price != want {
		t.Errorf("served price %v, want %v", q.Price, want)
	}
	if got := flights.Load(); got != 2 {
		t.Errorf("ran %d flights, want 2 (stale solve plus the retry)", got)
	}
}

// TestServerQuoteBoundedWhenMarketOutrunsSolver pins the retry bound: when
// every repricing flight is obsoleted by another cross-bucket tick before it
// lands, Quote must stop after quoteRounds flights and serve the freshest
// solved price marked stale instead of chasing the market forever.
func TestServerQuoteBoundedWhenMarketOutrunsSolver(t *testing.T) {
	book := serveTestBook(256)[:1]
	s, err := NewServer(book, ServerOptions{SpotBucket: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	var flights atomic.Int32
	s.flightBarrier = func() {
		n := flights.Add(1)
		if _, err := s.Tick("AAA", Market{Spot: 131 + float64(n), Vol: 0.21, Rate: 0.00163}); err != nil {
			t.Errorf("runaway tick: %v", err)
		}
	}
	if _, err := s.Tick("AAA", Market{Spot: 131, Vol: 0.21, Rate: 0.00163}); err != nil {
		t.Fatal(err)
	}
	q, err := s.Quote(0)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Stale {
		t.Error("quote chasing a runaway market must be served stale")
	}
	if got := flights.Load(); got != quoteRounds {
		t.Errorf("ran %d flights, want exactly quoteRounds=%d", got, quoteRounds)
	}
}

func TestServerBackpressure(t *testing.T) {
	book := serveTestBook(256)[:1]
	s, err := NewServer(book, ServerOptions{SpotBucket: 0.25, MaxPending: 1, ColdStart: true})
	if err != nil {
		t.Fatal(err)
	}
	inFlight := make(chan struct{})
	release := make(chan struct{})
	s.flightBarrier = func() {
		close(inFlight)
		<-release
	}
	errs := make(chan error, 2)
	go func() { _, err := s.Quote(0); errs <- err }() // leader, parked in the barrier
	<-inFlight
	go func() { _, err := s.Quote(0); errs <- err }()
	go func() { _, err := s.Quote(0); errs <- err }()
	// One of the two joins the flight (the MaxPending=1 queue slot), the
	// other is shed immediately.
	select {
	case err := <-errs:
		if !errors.Is(err, ErrServerBusy) {
			t.Fatalf("shed request: got %v, want ErrServerBusy", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no request was shed under a full waiter queue")
	}
	s.flightBarrier = nil
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("surviving request %d: %v", i, err)
		}
	}
}

// TestServerDeepOTMPutQuotes serves a put so far out of the money that its
// solve used to come back a few ulps below zero, which the health gate
// rejected: the quote must be healthy, not an error or a degraded serve.
func TestServerDeepOTMPutQuotes(t *testing.T) {
	put := Option{Type: Put, S: 400, K: 50, R: 0.03, V: 0.2, Y: 0.01, E: 1}
	s, err := NewServer([]BookEntry{{Symbol: "OTM", Option: put, Model: BlackScholesFD, Config: Config{Steps: 4096}}}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.Quote(0)
	if err != nil {
		t.Fatalf("quote: %v", err)
	}
	if q.Degraded || q.Price < 0 {
		t.Errorf("quote %+v: want a healthy non-negative price", q)
	}
}

func TestServerPerContractErrors(t *testing.T) {
	book := serveTestBook(256)
	// An American call under the BSM grid is unpriceable (puts only); the
	// error must be confined to its own surface slot.
	bad := book[0]
	bad.Model = BlackScholesFD
	book = append(book, bad)
	s, err := NewServer(book, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Quote(len(book) - 1); err == nil || !strings.Contains(err.Error(), "puts only") {
		t.Errorf("bad contract: got %v, want the puts-only error", err)
	}
	if _, err := s.Quote(0); err != nil {
		t.Errorf("good contract poisoned by its neighbor: %v", err)
	}
	if _, err := s.Quote(-1); err == nil {
		t.Error("negative id should fail")
	}
	if _, err := s.Quote(len(book)); err == nil {
		t.Error("out-of-range id should fail")
	}

	if _, err := NewServer(nil, ServerOptions{}); err == nil {
		t.Error("empty book should fail")
	}
	if _, err := NewServer([]BookEntry{{Option: book[0].Option}}, ServerOptions{}); err == nil {
		t.Error("zero Steps should fail")
	}
}

// TestServerConcurrentTickQuoteRace hammers one server with concurrent tick
// ingestion racing quote requests on the same contracts — the dirty set and
// the coalescing map under contention. Run under -race (the root package is
// part of the CI race job's list).
func TestServerConcurrentTickQuoteRace(t *testing.T) {
	book := serveTestBook(64)
	s, err := NewServer(book, ServerOptions{SpotBucket: 0.25, VolBucket: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	const (
		tickers  = 2
		quoters  = 4
		perG     = 150
		spotStep = 0.11
	)
	var wg sync.WaitGroup
	for g := 0; g < tickers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			symbols := []string{"AAA", "BBB"}
			for i := 0; i < perG; i++ {
				sym := symbols[rng.Intn(len(symbols))]
				m, _ := s.Market(sym)
				m.Spot += spotStep * (2*rng.Float64() - 1)
				if _, err := s.Tick(sym, m); err != nil {
					t.Errorf("tick: %v", err)
					return
				}
			}
		}(int64(g + 1))
	}
	for g := 0; g < quoters; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				if _, err := s.Quote(rng.Intn(s.Contracts())); err != nil {
					t.Errorf("quote: %v", err)
					return
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()

	// Quiesced: flush and verify the surface against direct pricing at each
	// contract's current representative point.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < s.Contracts(); id++ {
		q, err := s.Quote(id)
		if err != nil {
			t.Fatalf("final quote %d: %v", id, err)
		}
		if want := priceEntryAt(t, book[id], q.Market); q.Price != want {
			t.Errorf("final quote %d: price %v, want %v at %+v", id, q.Price, want, q.Market)
		}
	}
}
