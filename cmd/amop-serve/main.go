// Command amop-serve runs the live pricing server as an HTTP daemon: it
// registers a contract book at startup, ingests market-data ticks, and
// answers quotes from the continuously-maintained price surface — serving
// repeated and near-identical requests from cache, coalescing concurrent
// quotes for moved contracts into one repricing batch, and shedding load
// with 503 when the pending queue fills.
//
// Usage:
//
//	amop-serve -book book.json -addr :8321 \
//	    -spot-bucket 0.25 -vol-bucket 0.01 -rate-bucket 0.0005 \
//	    -max-staleness 250ms
//
// The book file is a JSON array of contracts in amop-chain's row format plus
// an optional per-row "symbol" (ticks address contracts by symbol; omitted
// symbols form one anonymous underlying):
//
//	[{"symbol": "AAA", "type": "call", "S": 127.62, "K": 130,
//	  "R": 0.00163, "V": 0.2, "Y": 0.0163, "E": 1.0, "steps": 10000}]
//
// Endpoints:
//
//	GET  /healthz           liveness + book size (process is up; nothing more)
//	GET  /readyz            readiness JSON: open breakers, quarantined
//	                        contracts, degraded symbols per symbol — 503 when
//	                        not ready, for load balancers and the sharding
//	                        router
//	POST /tick              {"symbol":"AAA","spot":128.1,"vol":0.22,"rate":0.002}
//	                        omitted fields keep their current value; the
//	                        response reports how many contracts the tick
//	                        moved vs skipped (quantization at work)
//	GET  /quote?id=3        one contract's quote: price, the exact market
//	                        point it was solved at, its age, staleness and
//	                        degradation flags
//	GET  /quotes            the whole surface
//	GET  /metrics           Prometheus text (amop.WriteMetrics): every
//	                        process-wide counter and gauge — spectrum cache,
//	                        FFT traffic, scratch pools, spawn budget, memo,
//	                        tiers, analytic caches, serving — plus the
//	                        latency histograms — quote latency per symbol,
//	                        solve latency per tier, coalescer wait,
//	                        staleness age — as quantile summaries
//	GET  /debug/slow        slow-solve traces (NDJSON): per-stage timings of
//	                        every repricing flight over -slow-threshold
//	GET  /debug/traces      the bounded ring of recent flight traces (NDJSON)
//	GET  /debug/events      the flight recorder (NDJSON): ticks, reprices,
//	                        breaker transitions, quarantines, degraded
//	                        serves, tier fallbacks, slow solves
//
// With -debug-addr a second HTTP server exposes net/http/pprof (and the same
// /debug endpoints) on a separate listener, so profilers never share a port
// with quote traffic. -access-log writes one NDJSON line per request, with
// request ids minted (or propagated) and echoed as X-Amop-Request-Id.
// SIGQUIT dumps the flight recorder to stderr without stopping the daemon;
// shutdown dumps it alongside the /metrics text.
//
// Quotes for contracts whose market moved block on a coalesced re-solve
// unless the surface entry is younger than -max-staleness, in which case the
// stale price is served immediately with "stale": true. Quotes answered in
// degraded mode — the fresh solve failed its health gate, panicked (the
// contract is quarantined), or the symbol's circuit breaker is open — carry
// "degraded": true and the X-Amop-Degraded response header; shed requests
// (503) carry Retry-After. Each quote observes its request's context, so a
// client disconnect stops the wait (the shared repricing flight keeps
// running for other waiters).
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: it stops accepting
// connections, lets in-flight requests finish (http.Server.Shutdown), drains
// the in-flight repricing flight so its surface write-back completes, and
// writes the final /metrics text to stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on http.DefaultServeMux (the -debug-addr server)
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"github.com/nlstencil/amop"
	"github.com/nlstencil/amop/internal/cliutil"
	"github.com/nlstencil/amop/internal/obs"
)

func main() {
	var (
		addr         = flag.String("addr", ":8321", "listen address")
		bookPath     = flag.String("book", "", "contract book file (JSON array; required)")
		steps        = flag.Int("steps", 10_000, "default time steps T for contracts that do not set steps")
		spotBucket   = flag.Float64("spot-bucket", 0.25, "spot quantization bucket width (0: exact)")
		volBucket    = flag.Float64("vol-bucket", 0.01, "volatility quantization bucket width (0: exact)")
		rateBucket   = flag.Float64("rate-bucket", 0.0005, "rate quantization bucket width (0: exact)")
		maxStaleness = flag.Duration("max-staleness", 0, "serve a moved contract's previous price if younger than this (0: always re-solve)")
		maxPending   = flag.Int("max-pending", 1024, "bound on quote requests queued behind one repricing batch (0: unbounded)")
		workers      = flag.Int("workers", 0, "repricing batch worker bound (0: one per core)")
		brkFails     = flag.Int("breaker-threshold", 0, "consecutive solve failures that open a symbol's circuit breaker (0: default 3)")
		brkBackoff   = flag.Duration("breaker-backoff", 0, "initial circuit-breaker backoff before a probe solve (0: default 100ms)")
		drainWait    = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound for in-flight requests and repricing")
		tierFlag     = flag.String("tier", "lattice", "pricing tier: lattice (always the stencil lattice), auto (analytic fast path when eligible, lattice fallback), analytic (forced; ineligible contracts error)")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof and the /debug telemetry endpoints on this separate address (empty: disabled)")
		slowThresh   = flag.Duration("slow-threshold", 0, "capture a repricing flight's per-stage trace at /debug/slow when it runs at least this long (0: default 100ms)")
		accessPath   = flag.String("access-log", "", "write an NDJSON access log to this file (\"-\": stderr; empty: request ids only, no log)")
	)
	flag.Parse()
	if *bookPath == "" {
		fail(fmt.Errorf("-book is required"))
	}
	tier, err := cliutil.ParseTier(*tierFlag)
	if err != nil {
		fail(err)
	}
	rows, entries, err := loadBook(*bookPath, *steps)
	if err != nil {
		fail(err)
	}
	start := time.Now()
	s, err := amop.NewServer(entries, amop.ServerOptions{
		SpotBucket: *spotBucket, VolBucket: *volBucket, RateBucket: *rateBucket,
		MaxStaleness: *maxStaleness, MaxPending: *maxPending, Workers: *workers,
		BreakerThreshold: *brkFails, BreakerBackoff: *brkBackoff,
		Tier: tier,
	})
	if err != nil {
		fail(err)
	}
	log.Printf("amop-serve: priced %d contracts in %v; listening on %s",
		s.Contracts(), time.Since(start).Round(time.Millisecond), *addr)
	if *slowThresh > 0 {
		obs.SetSlowThreshold(*slowThresh)
	}
	obs.RecordEvent(obs.EvServerStart, "", int64(s.Contracts()), *addr)

	var accessOut io.Writer
	switch *accessPath {
	case "":
	case "-":
		accessOut = os.Stderr
	default:
		f, err := os.OpenFile(*accessPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(fmt.Errorf("opening access log: %w", err))
		}
		defer f.Close()
		accessOut = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: *addr, Handler: obs.AccessLog(newMux(s, rows), accessOut)}
	errc := make(chan error, 1)
	//amop:allow-go HTTP accept loop: one goroutine for the daemon's lifetime, joined through errc on ListenAndServe's return
	go func() { errc <- srv.ListenAndServe() }()

	if *debugAddr != "" {
		// The pprof import registered its handlers on DefaultServeMux; the
		// quote mux above is its own ServeMux, so profiling stays off the
		// serving port. The telemetry endpoints ride along for tooling that
		// only reaches the debug listener.
		http.Handle("/debug/slow", obs.SlowHandler())
		http.Handle("/debug/traces", obs.TracesHandler())
		http.Handle("/debug/events", obs.EventsHandler())
		dbg := &http.Server{Addr: *debugAddr}
		//amop:allow-go pprof listener: one goroutine for the daemon's lifetime; errors are logged, not joined — losing pprof must not kill serving
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("amop-serve: debug listener: %v", err)
			}
		}()
		defer dbg.Close()
		log.Printf("amop-serve: pprof and /debug telemetry on %s", *debugAddr)
	}

	// SIGQUIT dumps the flight recorder without stopping the daemon — the
	// classic "what just happened" signal. Installing the handler replaces
	// the Go runtime's stack-dump-and-die default for SIGQUIT.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	//amop:allow-go signal pump: one goroutine for the daemon's lifetime, exits with the process
	go func() {
		for range quit {
			log.Printf("amop-serve: SIGQUIT: dumping flight recorder")
			obs.WriteEventsNDJSON(os.Stderr)
		}
	}()

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills the drain
	log.Printf("amop-serve: shutdown signal received; draining (bound %v)", *drainWait)
	sctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Order matters: Shutdown stops admitting requests and waits the
	// in-flight ones out, then Drain waits for the repricing flight those
	// requests may have led so its surface write-back completes cleanly.
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("amop-serve: shutdown: %v", err)
	}
	if err := s.Drain(sctx); err != nil {
		log.Printf("amop-serve: flight drain: %v", err)
	}
	obs.RecordEvent(obs.EvServerStop, "", 0, "")
	// The final snapshot is the /metrics text itself, from the same writer.
	log.Printf("amop-serve: final metrics:")
	amop.WriteMetrics(os.Stderr)
	log.Printf("amop-serve: flight recorder at shutdown:")
	obs.WriteEventsNDJSON(os.Stderr)
}

// loadBook reads the -book file: a JSON array of contracts in the shared
// CLI row format (internal/cliutil), with the optional per-row "symbol"
// naming the underlying each contract serves under.
func loadBook(path string, defaultSteps int) ([]cliutil.Contract, []amop.BookEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var rows []cliutil.Contract
	if err := json.NewDecoder(f).Decode(&rows); err != nil {
		return nil, nil, fmt.Errorf("parsing book %s: %w", path, err)
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("no contracts in %s", path)
	}
	entries := make([]amop.BookEntry, len(rows))
	for i, row := range rows {
		req, err := row.Request(defaultSteps)
		if err != nil {
			return nil, nil, fmt.Errorf("book contract %d: %w", i, err)
		}
		entries[i] = amop.BookEntry{
			Symbol: row.Symbol, Option: req.Option, Model: req.Model, Config: req.Config,
		}
	}
	return rows, entries, nil
}

// tickBody is the POST /tick request; pointer fields distinguish "omitted —
// keep the current value" from an explicit zero.
type tickBody struct {
	Symbol string   `json:"symbol"`
	Spot   *float64 `json:"spot"`
	Vol    *float64 `json:"vol"`
	Rate   *float64 `json:"rate"`
}

// quoteBody is one GET /quote(s) response row.
type quoteBody struct {
	ID     int     `json:"id"`
	Symbol string  `json:"symbol"`
	Type   string  `json:"type"`
	K      float64 `json:"K"`
	E      float64 `json:"E"`
	Price  float64 `json:"price"`
	// Spot/Vol/Rate are the representative market point the price was
	// solved at (the quantization cell center, not the raw tick).
	Spot  float64 `json:"spot"`
	Vol   float64 `json:"vol"`
	Rate  float64 `json:"rate"`
	AgeMs float64 `json:"age_ms"`
	Stale bool    `json:"stale"`
	// Degraded marks a quote served from the contract's pinned last-good
	// price because the fresh solve failed or its symbol's circuit breaker
	// is open.
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
}

// newMux builds the daemon's HTTP surface over a running server. It is
// split from main so tests can drive it through net/http/httptest.
func newMux(s *amop.Server, rows []cliutil.Contract) *http.ServeMux {
	mux := http.NewServeMux()

	writeJSON := func(w http.ResponseWriter, status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(v)
	}
	httpErr := func(w http.ResponseWriter, status int, err error) {
		writeJSON(w, status, map[string]string{"error": err.Error()})
	}

	// /healthz is pure liveness — the process is up and holds a book. The
	// serving-health detail lives on /readyz so orchestrators can probe the
	// two separately: restart on a dead /healthz, shed traffic on a 503
	// /readyz.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "contracts": s.Contracts()})
	})

	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		status := http.StatusOK
		if !h.Ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, h)
	})

	mux.Handle("/debug/slow", obs.SlowHandler())
	mux.Handle("/debug/traces", obs.TracesHandler())
	mux.Handle("/debug/events", obs.EventsHandler())

	mux.HandleFunc("/tick", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST /tick"))
			return
		}
		var body tickBody
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			httpErr(w, http.StatusBadRequest, fmt.Errorf("parsing tick: %w", err))
			return
		}
		// The omitted-fields merge happens inside TickPartial, under the
		// server's lock: concurrent partial ticks for one symbol compose
		// instead of overwriting each other with stale reads.
		res, err := s.TickPartial(body.Symbol, body.Spot, body.Vol, body.Rate)
		if err != nil {
			httpErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"symbol": body.Symbol, "market": res.Market,
			"moved": res.Moved, "skipped": res.Skipped,
		})
	})

	quoteOf := func(ctx context.Context, id int) (quoteBody, error) {
		row := rows[id]
		out := quoteBody{ID: id, Symbol: row.Symbol, Type: row.Type, K: row.K, E: row.E}
		q, err := s.QuoteCtx(ctx, id)
		if err != nil {
			out.Error = err.Error()
			return out, err
		}
		out.Price = q.Price
		out.Spot, out.Vol, out.Rate = q.Market.Spot, q.Market.Vol, q.Market.Rate
		out.AgeMs = float64(time.Since(q.At).Microseconds()) / 1e3
		out.Stale = q.Stale
		out.Degraded = q.Degraded
		return out, nil
	}

	mux.HandleFunc("/quote", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.URL.Query().Get("id"))
		if err != nil {
			httpErr(w, http.StatusBadRequest, fmt.Errorf("quote needs an integer ?id: %w", err))
			return
		}
		if id < 0 || id >= s.Contracts() {
			httpErr(w, http.StatusNotFound, fmt.Errorf("quote id %d out of range [0, %d)", id, s.Contracts()))
			return
		}
		q, qErr := quoteOf(r.Context(), id)
		status := http.StatusOK
		switch {
		case errors.Is(qErr, amop.ErrServerBusy),
			errors.Is(qErr, context.Canceled),
			errors.Is(qErr, context.DeadlineExceeded):
			// Shed or abandoned: the surface is fine, the caller should just
			// come back — tell it when.
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		case qErr != nil:
			status = http.StatusInternalServerError
		}
		if q.Degraded {
			w.Header().Set("X-Amop-Degraded", "true")
		}
		writeJSON(w, status, q)
	})

	mux.HandleFunc("/quotes", func(w http.ResponseWriter, r *http.Request) {
		out := make([]quoteBody, s.Contracts())
		for id := range out {
			out[id], _ = quoteOf(r.Context(), id) // per-row errors are reported in the row
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		amop.WriteMetrics(w)
	})

	return mux
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "amop-serve:", err)
	os.Exit(1)
}
