// Package obs is the telemetry layer of the pricing stack: lock-free
// log-bucketed latency histograms, lightweight span traces of the pricing
// path, and a fixed-size flight recorder of serving events. It is the
// production equivalent of the paper's per-stage cost breakdowns — where the
// paper instruments the stencil pipeline to explain where a solve spends its
// time, obs instruments the serving pipeline so a live deployment can answer
// "what is quote p99, where does a slow solve spend its time, and which
// tier or symbol is degrading it".
//
// The layer is built to be near-free on the paths that matter:
//
//   - the disabled path costs one atomic load (Enabled) per instrumentation
//     point and nothing else;
//   - recording is zero-alloc: histograms bump a fixed atomic bucket, spans
//     accumulate into fixed atomic stage slots, and the cached-quote serving
//     path stays at 0 allocs/op with telemetry enabled (pinned by
//     TestObsOverheadSmoke);
//   - snapshots (Prometheus quantiles, NDJSON trace export) do the work, on
//     the monitoring path, never the serving path.
//
// Telemetry is ON by default; SetEnabled(false) reduces every
// instrumentation point to the single gate load.
package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates every instrumentation point. Histogram records, span stage
// accumulation and flight-recorder appends all check it first, so disabling
// telemetry reduces each point to this one atomic load.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether telemetry is on. Instrumentation call sites that
// need any setup beyond the record itself (a time.Now, a label lookup) must
// check it first so the disabled path stays a single atomic load.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns telemetry on or off process-wide and returns the previous
// setting. It exists for A/B overhead measurement (the obs-overhead harness
// experiment and TestObsOverheadSmoke) and for operators who want the
// absolute floor; leave it on in production — that is the configuration the
// overhead gate pins.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// epoch anchors Mono. time.Since on a time carrying a monotonic reading reads
// only the monotonic clock; time.Now reads the wall clock as well.
var epoch = time.Now()

// Mono returns monotonic nanoseconds since an arbitrary process-wide origin,
// in one clock read: a cheaper start stamp than time.Now for hot-path
// timings that only ever subtract two stamps.
func Mono() int64 { return int64(time.Since(epoch)) }

// The pricing stack's standing instruments. Every latency the ROADMAP's
// sharding router needs to steer around a slow shard lives here: quote serve
// latency by symbol, solve latency by tier (with the analytic tier split by
// cold/warm boundary cache), the two queueing delays (coalescer wait, spawn
// budget wait), staleness age at serve time, and the FFT evolution kernel
// underneath it all.
var (
	// QuoteLatency is the end-to-end Server.Quote latency, labeled by the
	// contract's symbol: cache serves land in the nanosecond buckets,
	// flight-blocked quotes wherever their solve puts them.
	QuoteLatency = NewHistVec("amop_quote_latency_seconds", "symbol",
		"end-to-end quote serve latency by symbol")
	// SolveLatency is the per-contract solve latency labeled by the tier
	// that priced it: "lattice", "analytic_warm" (boundary-cache hit) or
	// "analytic_cold" (boundary solved from scratch).
	SolveLatency = NewHistVec("amop_solve_latency_seconds", "tier",
		"per-contract solve latency by pricing tier (analytic split by boundary-cache cold/warm)")
	// CoalescerWait is the time a quote spent blocked on a repricing flight
	// it joined (leaders' solve time is SolveLatency's to report).
	CoalescerWait = NewHistogram("amop_coalescer_wait_seconds",
		"time quote requests spent waiting on a joined repricing flight")
	// BudgetWait is the time spent acquiring spawn-budget tokens in
	// par.AcquireCtx — the queueing delay bulk work sees when the machine is
	// saturated.
	BudgetWait = NewHistogram("amop_budget_wait_seconds",
		"time spent blocked acquiring spawn-budget tokens (par.AcquireCtx)")
	// StalenessAge is the age of the surface entry each quote was answered
	// from, at serve time — the distribution MaxStaleness trades against.
	StalenessAge = NewHistogram("amop_staleness_age_seconds",
		"age of the served surface price at serve time")
	// FFTEvolve is the latency of one linstencil FFT evolution (the
	// EvolveCone/EvolvePeriodic hot kernel of every lattice solve).
	FFTEvolve = NewHistogram("amop_fft_evolve_seconds",
		"latency of one FFT stencil evolution (forward transform, kernel multiply, inverse)")
)

// instrument is anything the registry can render to Prometheus text and
// reset; Histogram and HistVec implement it.
type instrument interface {
	writeProm(w io.Writer)
	reset()
}

var (
	regMu    sync.Mutex
	registry []instrument
)

func register(in instrument) {
	regMu.Lock()
	registry = append(registry, in)
	regMu.Unlock()
}

func instruments() []instrument {
	regMu.Lock()
	defer regMu.Unlock()
	return append([]instrument(nil), registry...)
}

// WriteProm renders every registered histogram as a Prometheus summary:
// per-label p50/p90/p99 quantile series plus _sum, _count and _max. Series
// with zero observations are omitted, so an idle instrument costs nothing on
// the scrape.
func WriteProm(w io.Writer) {
	for _, in := range instruments() {
		in.writeProm(w)
	}
}

// Reset zeroes every registered histogram, the trace rings and the flight
// recorder. It exists for tests and A/B harness experiments that need a
// clean slate inside one process; production monitoring wants the cumulative
// counters and never calls it.
func Reset() {
	for _, in := range instruments() {
		in.reset()
	}
	resetTraces()
	resetEvents()
}

// fprintSeconds writes v nanoseconds as seconds in compact scientific
// notation, the way Prometheus clients format durations.
func fprintSeconds(w io.Writer, v int64) {
	fmt.Fprintf(w, "%g", float64(v)/1e9)
}
