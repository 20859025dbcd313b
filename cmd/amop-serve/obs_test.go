package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/nlstencil/amop"
	"github.com/nlstencil/amop/internal/obs"
)

// metricsContract is the compatibility contract of /metrics: the counter and
// gauge series operators and dashboards already scrape, by name and type.
// A rename or a dropped registration fails here, not in someone's alerting.
var metricsContract = map[string]string{
	"amop_spectrum_cache_hits_total":           "counter",
	"amop_spectrum_cache_misses_total":         "counter",
	"amop_spectrum_cache_bytes":                "gauge",
	"amop_spectrum_cache_entries":              "gauge",
	"amop_fft_bytes_transformed_total":         "counter",
	"amop_fft_soa_transforms_total":            "counter",
	"amop_scratch_misses_total":                "counter",
	"amop_par_forks_total":                     "counter",
	"amop_par_forks_inlined_total":             "counter",
	"amop_par_budget_in_use":                   "gauge",
	"amop_repricing_memo_hits_total":           "counter",
	"amop_repricing_memo_misses_total":         "counter",
	"amop_serve_tick_reprices_total":           "counter",
	"amop_serve_tick_skips_total":              "counter",
	"amop_serve_coalesced_requests_total":      "counter",
	"amop_serve_stale_serves_total":            "counter",
	"amop_serve_cache_hits_total":              "counter",
	"amop_tier_analytic_serves_total":          "counter",
	"amop_tier_fallbacks_total":                "counter",
	"amop_tier_xval_checks_total":              "counter",
	"amop_analytic_boundary_hits_total":        "counter",
	"amop_analytic_boundary_misses_total":      "counter",
	"amop_analytic_boundary_warm_starts_total": "counter",
	"amop_analytic_boundary_cache_entries":     "gauge",
	"amop_serve_panics_recovered_total":        "counter",
	"amop_serve_degraded_serves_total":         "counter",
	"amop_serve_circuit_opens_total":           "counter",
	"amop_serve_ctx_cancels_total":             "counter",
}

// Every contract series must appear on /metrics exactly once, as a sample
// line under its own TYPE line of the contracted type.
func TestMetricsExportAllPerfCounters(t *testing.T) {
	ts := startTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	typeOf := map[string]string{} // series name -> type of the family it sits under
	samples := map[string]int{}
	family, familyType := "", ""
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, familyType, _ = strings.Cut(rest, " ")
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if _, contracted := metricsContract[name]; !contracted {
			continue
		}
		if _, err := strconv.ParseInt(value, 10, 64); err != nil {
			t.Errorf("%s: sample value %q is not an integer", name, value)
		}
		samples[name]++
		if name == family {
			typeOf[name] = familyType
		}
	}
	for name, want := range metricsContract {
		if n := samples[name]; n != 1 {
			t.Errorf("/metrics has %d sample lines for %s, want 1", n, name)
			continue
		}
		if got := typeOf[name]; got != want {
			t.Errorf("%s sits under TYPE %q, want %q", name, got, want)
		}
	}
}

// /metrics must also carry the telemetry layer's latency histograms, with
// per-symbol and per-tier labels, once quotes have flowed.
func TestMetricsLatencyHistograms(t *testing.T) {
	obs.Reset()
	ts := startTestServer(t)
	// Quote latency is sampled one serve in 512 (keyed off the global
	// cache-serve counter), so drive enough cached serves that the counter
	// must cross a sampling tick no matter where it started.
	for i := 0; i < 1030; i++ {
		getJSON(t, ts.URL+"/quote?id=0", http.StatusOK, nil)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	metrics := string(body)
	for _, want := range []string{
		`amop_quote_latency_seconds{symbol="AAA",quantile="0.5"}`,
		`amop_quote_latency_seconds_count{symbol="AAA"}`,
		`amop_solve_latency_seconds{tier="lattice",quantile="0.99"}`,
		`amop_staleness_age_seconds_count`,
		`amop_fft_evolve_seconds_count`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// /healthz stays pure liveness; /readyz reports the serving-health JSON the
// sharding router consumes.
func TestReadyz(t *testing.T) {
	ts := startTestServer(t)
	var h amop.ServerHealth
	getJSON(t, ts.URL+"/readyz", http.StatusOK, &h)
	if !h.Ready || len(h.OpenBreakers) != 0 || h.QuarantinedContracts != 0 {
		t.Fatalf("healthy server not ready: %+v", h)
	}
	if len(h.Symbols) != 2 { // AAA (2 contracts) and BBB (1)
		t.Fatalf("readyz symbols = %+v", h.Symbols)
	}
	for _, sh := range h.Symbols {
		if sh.Breaker != "closed" {
			t.Fatalf("symbol %s breaker %q, want closed", sh.Symbol, sh.Breaker)
		}
	}
	if h.Symbols[0].Symbol != "AAA" || h.Symbols[0].Contracts != 2 {
		t.Fatalf("readyz per-symbol breakdown: %+v", h.Symbols)
	}
}

// A repricing flight must leave a trace at /debug/traces, events in the
// flight recorder, and — when it crosses the slow threshold — a per-stage
// breakdown at /debug/slow.
func TestDebugEndpointsCaptureFlight(t *testing.T) {
	obs.Reset()
	prev := obs.SetSlowThreshold(0) // every flight is "slow"
	defer obs.SetSlowThreshold(prev)

	ts := startTestServer(t)
	postJSON(t, ts.URL+"/tick", `{"symbol":"AAA","spot":131.0}`, http.StatusOK, nil)
	getJSON(t, ts.URL+"/quote?id=0", http.StatusOK, nil) // leads the repricing flight

	get := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("%s Content-Type = %q", path, ct)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	slow := get("/debug/slow")
	if !strings.Contains(slow, `"kind":"flight"`) || !strings.Contains(slow, `"label":"AAA"`) {
		t.Fatalf("/debug/slow missing the flight trace: %q", slow)
	}
	for _, stage := range []string{"snapshot", "solve_lattice", "publish"} {
		if !strings.Contains(slow, `"stage":"`+stage+`"`) {
			t.Errorf("/debug/slow trace missing stage %q: %s", stage, slow)
		}
	}
	if traces := get("/debug/traces"); !strings.Contains(traces, `"kind":"flight"`) {
		t.Fatalf("/debug/traces empty after a flight: %q", traces)
	}
	events := get("/debug/events")
	for _, kind := range []string{`"kind":"tick"`, `"kind":"reprice"`, `"kind":"slow_solve"`} {
		if !strings.Contains(events, kind) {
			t.Errorf("/debug/events missing %s:\n%s", kind, events)
		}
	}
}

// The daemon's handler stack echoes request ids end to end.
func TestRequestIDEcho(t *testing.T) {
	path := filepath.Join(t.TempDir(), "book.json")
	if err := os.WriteFile(path, []byte(testBook), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, entries, err := loadBook(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	s, err := amop.NewServer(entries, amop.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var logged strings.Builder
	ts := httptest.NewServer(obs.AccessLog(newMux(s, rows), &logged))
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/quote?id=1", nil)
	req.Header.Set(obs.RequestIDHeader, "client-abc")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "client-abc" {
		t.Fatalf("request id not echoed: %q", got)
	}
	if !strings.Contains(logged.String(), `"id":"client-abc"`) {
		t.Fatalf("access log missing the request id: %q", logged.String())
	}
}
