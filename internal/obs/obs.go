// Package obs is the telemetry layer of the pricing stack: one registry of
// process-wide counters, gauges and lock-free log-bucketed latency
// histograms, lightweight span traces of the pricing path, and a fixed-size
// flight recorder of serving events. It is the production equivalent of the
// paper's per-stage cost breakdowns — where the paper instruments the
// stencil pipeline to explain where a solve spends its time, obs instruments
// the serving pipeline so a live deployment can answer "what is quote p99,
// where does a slow solve spend its time, and which tier or symbol is
// degrading it".
//
// The layer is built to be near-free on the paths that matter:
//
//   - the disabled path costs one atomic load (Enabled) per instrumentation
//     point and nothing else; counters are not gated, since counting is
//     itself one atomic add;
//   - recording is zero-alloc: counters add to one atomic, histograms bump a
//     fixed atomic bucket, spans accumulate into fixed atomic stage slots,
//     and the cached-quote serving path stays at 0 allocs/op with telemetry
//     enabled (pinned by TestCachedQuoteZeroAllocs);
//   - snapshots (Prometheus text, NDJSON trace export) do the work, on the
//     monitoring path, never the serving path.
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
// setting. It exists for A/B overhead measurement (the seeded benchmark's
// traced runs) and for operators who want the absolute floor; leave it on in
// production — that is the configuration the benchmark measures.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// epoch anchors Mono. time.Since on a time carrying a monotonic reading reads
// only the monotonic clock; time.Now reads the wall clock as well.
var epoch = time.Now()

// Mono returns monotonic nanoseconds since an arbitrary process-wide origin,
// in one clock read: a cheaper start stamp than time.Now for hot-path
// timings that only ever subtract two stamps.
func Mono() int64 { return int64(time.Since(epoch)) }

// The pricing stack's standing instruments: quote serve latency by symbol,
// solve latency by tier (with the analytic tier split by cold/warm boundary
// cache), coalescer wait, staleness age at serve time, and the FFT evolution
// kernel underneath it all.
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
	// BudgetWait was the time spent blocked acquiring spawn-budget tokens.
	// The spawn budget never blocks (par.TryAcquire answers at once), so
	// nothing records into it and it stays off /metrics; the batch engine's
	// budget_wait trace stage times its acquisitions instead. It remains
	// only because the seeded benchmark (bench/) reads it.
	BudgetWait = NewHistogram("amop_budget_wait_seconds",
		"time spent blocked acquiring spawn-budget tokens (never recorded)")
	// StalenessAge is the age of the surface entry each quote was answered
	// from, at serve time — the distribution MaxStaleness trades against.
	StalenessAge = NewHistogram("amop_staleness_age_seconds",
		"age of the served surface price at serve time")
	// FFTEvolve is the latency of one linstencil FFT evolution (the
	// EvolveCone/EvolvePeriodic hot kernel of every lattice solve), sampled:
	// one evolution in 512 is timed, so the rest read no clock.
	FFTEvolve = NewHistogram("amop_fft_evolve_seconds",
		"latency of one FFT stencil evolution (forward transform, kernel multiply, inverse), sampled 1 in 512")
)

// instrument is anything the registry can render to Prometheus text and
// reset; Counter, Gauge, Histogram and HistVec implement it. Every package
// registers its own instruments at init, so the registry is the whole
// process's metric set.
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

// WriteProm renders the registry in Prometheus text exposition format, in
// registration order: counters and gauges as one sample each (zeros
// included), histograms as summaries — per-label p50/p90/p99 quantile series
// plus _sum, _count and _max, omitted while they have no observations.
func WriteProm(w io.Writer) {
	for _, in := range instruments() {
		in.writeProm(w)
	}
}

// Reset zeroes every registered histogram, the trace rings and the flight
// recorder. It exists for tests and A/B harness experiments that need a
// clean slate inside one process. Counters are left alone: they stay
// cumulative since process start, so before/after deltas taken across a
// Reset keep their meaning.
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
