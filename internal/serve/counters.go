package serve

import "github.com/nlstencil/amop/internal/obs"

// The serving counters are process-wide and cumulative, registered with the
// spectrum-cache and transform counters in the one obs registry: sample
// before and after a workload and subtract to attribute activity to it. The
// server adds to them directly; each Add is one atomic add. CacheServes also
// serves as the free sampling tick of the quote-latency telemetry.
var (
	TickReprices = obs.NewCounter("amop_serve_tick_reprices_total",
		"contracts a market tick moved to a new quantization cell")
	TickSkips = obs.NewCounter("amop_serve_tick_skips_total",
		"contracts a market tick left inside their quantization cell")
	CoalescedRequests = obs.NewCounter("amop_serve_coalesced_requests_total",
		"quote requests that joined an in-flight repricing batch")
	StaleServes = obs.NewCounter("amop_serve_stale_serves_total",
		"quotes answered stale under the server's staleness bound")
	CacheServes = obs.NewCounter("amop_serve_cache_hits_total",
		"quotes answered straight from a clean surface entry")
	PanicsRecovered = obs.NewCounter("amop_serve_panics_recovered_total",
		"pricer panics recovered and confined to one contract")
	DegradedServes = obs.NewCounter("amop_serve_degraded_serves_total",
		"quotes answered from a pinned last-good price (failed solve or open breaker)")
	CircuitOpens = obs.NewCounter("amop_serve_circuit_opens_total",
		"per-symbol circuit breakers tripped open")
	CtxCancels = obs.NewCounter("amop_serve_ctx_cancels_total",
		"solves and batch items abandoned on context cancellation or deadline")
)

// Stats is a snapshot of the cumulative serving counters.
type Stats struct {
	TickReprices      int64
	TickSkips         int64
	CoalescedRequests int64
	StaleServes       int64
	CacheServes       int64
	PanicsRecovered   int64
	DegradedServes    int64
	CircuitOpens      int64
	CtxCancels        int64
}

// ReadStats returns the current counter snapshot.
func ReadStats() Stats {
	return Stats{
		TickReprices:      TickReprices.Load(),
		TickSkips:         TickSkips.Load(),
		CoalescedRequests: CoalescedRequests.Load(),
		StaleServes:       StaleServes.Load(),
		CacheServes:       CacheServes.Load(),
		PanicsRecovered:   PanicsRecovered.Load(),
		DegradedServes:    DegradedServes.Load(),
		CircuitOpens:      CircuitOpens.Load(),
		CtxCancels:        CtxCancels.Load(),
	}
}
