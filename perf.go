package amop

import (
	"fmt"
	"io"
	"reflect"

	"github.com/nlstencil/amop/internal/analytic"
	"github.com/nlstencil/amop/internal/fft"
	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/scratch"
	"github.com/nlstencil/amop/internal/serve"
)

// PerfCounters is a snapshot of the process-wide fast-path performance
// counters: the kernel-spectrum cache that every solver and every PriceBatch
// worker shares, and the byte traffic through the FFT substrate. Counters are
// cumulative since process start; sample before and after a workload and
// subtract to attribute activity to it.
//
// Every field carries a prom struct tag naming its Prometheus series;
// WriteProm walks the tags by reflection, so /metrics, the shutdown snapshot
// and any future exporter stay exhaustive by construction — a new counter
// added here is exported everywhere at once, and a reflection test fails
// when a tag is missing.
type PerfCounters struct {
	// SpectrumCacheHits / SpectrumCacheMisses count lookups of the
	// precomputed kernel spectra (stencil symbol raised to the step count) by
	// the FFT evolution hot path. A healthy steady-state workload — a chain
	// repriced every tick, a batch sweeping strikes on one lattice — runs at
	// a hit rate near 1.
	SpectrumCacheHits   int64 `prom:"amop_spectrum_cache_hits_total"`
	SpectrumCacheMisses int64 `prom:"amop_spectrum_cache_misses_total"`
	// SpectrumCacheBytes / SpectrumCacheEntries describe the cache's current
	// footprint, bounded by linstencil.SetSpectrumCacheLimit (64 MiB by
	// default).
	SpectrumCacheBytes   int64 `prom:"amop_spectrum_cache_bytes"`
	SpectrumCacheEntries int   `prom:"amop_spectrum_cache_entries"`
	// FFTBytesTransformed counts sample bytes pushed through FFT butterfly
	// stages (8 per real sample, per direction).
	FFTBytesTransformed int64 `prom:"amop_fft_bytes_transformed_total"`
	// FFTSoATransforms counts transforms executed by the split-plane FFT
	// kernel (per direction; rows of n <= 4 real samples are computed
	// directly and not counted). Their bytes are included in
	// FFTBytesTransformed.
	FFTSoATransforms int64 `prom:"amop_fft_soa_transforms_total"`
	// ScratchMisses counts requests for poolable row, staging and spectrum
	// buffers that found no idle buffer in the scratch pools and allocated.
	// It climbs while a new workload shape warms the pools, then grows
	// slowly: warm lattice solves miss on about 0.1% of requests, when one
	// P's magazine runs dry while another's is full or after the GC releases
	// idle magazines. Much faster growth means buffers are being dropped
	// instead of returned.
	ScratchMisses int64 `prom:"amop_scratch_misses_total"`
	// ParForks / ParForksInlined count the par.For and par.Do calls that
	// asked the spawn budget for workers and ran part of their work on
	// another goroutine, or ran it all on the caller's. ParBudgetInUse is
	// the number of budget tokens held right now, at most Workers()-1; a
	// token is held only while its goroutine runs. On an otherwise idle
	// 2-CPU machine one T=65536 BSM solve forks in about a quarter of its
	// calls; a share near zero means every fork finds the budget taken.
	ParForks        int64 `prom:"amop_par_forks_total"`
	ParForksInlined int64 `prom:"amop_par_forks_inlined_total"`
	ParBudgetInUse  int   `prom:"amop_par_budget_in_use"`
	// RepricingMemoHits / RepricingMemoMisses count how often a batch
	// engine served a repricing from its per-batch memo versus priced it
	// fresh. A chain with Greeks and implied vols enabled reprices shared
	// points by construction — the IV solver's seed and first slope reuse
	// the Greeks' base price and vega bumps — so a healthy run shows a
	// strictly positive hit count.
	RepricingMemoHits   int64 `prom:"amop_repricing_memo_hits_total"`
	RepricingMemoMisses int64 `prom:"amop_repricing_memo_misses_total"`
	// TickReprices / TickSkips count, across every live pricing Server in
	// the process, contracts a market tick marked for re-solve (their
	// quantized inputs moved to a new cell) versus left untouched (inputs
	// wandered inside their cell). A healthy tick stream over a sensibly
	// bucketed book shows TickSkips well above TickReprices — that gap is
	// the work the incremental path never does.
	TickReprices int64 `prom:"amop_serve_tick_reprices_total"`
	TickSkips    int64 `prom:"amop_serve_tick_skips_total"`
	// CoalescedRequests counts quote requests that joined an in-flight
	// repricing batch instead of starting their own; StaleServes counts
	// quotes answered from a dirty-but-fresh surface under the server's
	// MaxStaleness bound; ServeCacheHits counts quotes answered straight
	// from a clean surface entry (the serving fast path).
	CoalescedRequests int64 `prom:"amop_serve_coalesced_requests_total"`
	StaleServes       int64 `prom:"amop_serve_stale_serves_total"`
	ServeCacheHits    int64 `prom:"amop_serve_cache_hits_total"`
	// AnalyticServes counts prices served by the analytic fast path — forced
	// through Algorithm Analytic or promoted by TierAuto; TierFallbacks
	// counts TierAuto candidates that fell back to the lattice (Bermudan
	// schedules never reach the tier seam, so the usual cause is an
	// out-of-envelope contract); XvalChecks counts analytic-vs-lattice
	// cross-validation pairs priced through XvalCheck. On an in-envelope
	// vanilla book served under TierAuto, AnalyticServes tracks the quote
	// count and TierFallbacks stays flat.
	AnalyticServes int64 `prom:"amop_tier_analytic_serves_total"`
	TierFallbacks  int64 `prom:"amop_tier_fallbacks_total"`
	XvalChecks     int64 `prom:"amop_tier_xval_checks_total"`
	// AnalyticBoundaryHits / AnalyticBoundaryMisses count the analytic
	// tier's lookups in its shared early-exercise boundary cache, keyed by
	// (rate, yield, vol, expiry). AnalyticBoundaryWarmStarts counts the
	// misses whose solve started from a cached boundary at a nearby vol
	// with the same rate, yield and expiry instead of from QD+, and
	// AnalyticBoundaryCacheEntries is the number of boundaries held now (at
	// most 512; the cache clears when full). A desk chain under TierAuto
	// hits about 95% of the time; its misses are vol moves and implied-vol
	// iterates, which are mostly warm starts.
	AnalyticBoundaryHits         int64 `prom:"amop_analytic_boundary_hits_total"`
	AnalyticBoundaryMisses       int64 `prom:"amop_analytic_boundary_misses_total"`
	AnalyticBoundaryWarmStarts   int64 `prom:"amop_analytic_boundary_warm_starts_total"`
	AnalyticBoundaryCacheEntries int   `prom:"amop_analytic_boundary_cache_entries"`
	// PanicsRecovered counts pricer panics captured and confined to a single
	// contract (the batch engine's per-item recover, or a coalesced flight's
	// recover); DegradedServes counts quotes answered from a pinned last-good
	// price because the fresh solve failed its health gate, errored, or the
	// symbol's circuit breaker was open; CircuitOpens counts per-symbol
	// breakers tripping open on consecutive solve failures; CtxCancels counts
	// solves and batch items abandoned on context cancellation or deadline
	// expiry. On a healthy serving process all four stay flat.
	PanicsRecovered int64 `prom:"amop_serve_panics_recovered_total"`
	DegradedServes  int64 `prom:"amop_serve_degraded_serves_total"`
	CircuitOpens    int64 `prom:"amop_serve_circuit_opens_total"`
	CtxCancels      int64 `prom:"amop_serve_ctx_cancels_total"`
}

// ReadPerfCounters returns the current counter snapshot.
func ReadPerfCounters() PerfCounters {
	hits, misses, bytes, entries := linstencil.SpectrumCacheStats()
	forks, inlined := par.Forks()
	memoHits, memoMisses := RepricingMemoStats()
	tierAnalytic, tierFall, tierXval := TierStats()
	bndHits, bndMisses := analytic.BoundaryCacheStats()
	bndWarm, bndEntries := analytic.BoundaryCacheUsage()
	srv := serve.ReadStats()
	return PerfCounters{
		SpectrumCacheHits:            hits,
		SpectrumCacheMisses:          misses,
		SpectrumCacheBytes:           bytes,
		SpectrumCacheEntries:         entries,
		FFTBytesTransformed:          fft.TransformedBytes(),
		FFTSoATransforms:             fft.SoATransforms(),
		ScratchMisses:                scratch.Misses(),
		ParForks:                     forks,
		ParForksInlined:              inlined,
		ParBudgetInUse:               par.InUse(),
		RepricingMemoHits:            memoHits,
		RepricingMemoMisses:          memoMisses,
		AnalyticServes:               tierAnalytic,
		TierFallbacks:                tierFall,
		XvalChecks:                   tierXval,
		AnalyticBoundaryHits:         bndHits,
		AnalyticBoundaryMisses:       bndMisses,
		AnalyticBoundaryWarmStarts:   bndWarm,
		AnalyticBoundaryCacheEntries: bndEntries,
		TickReprices:                 srv.TickReprices,
		TickSkips:                    srv.TickSkips,
		CoalescedRequests:            srv.CoalescedRequests,
		StaleServes:                  srv.StaleServes,
		ServeCacheHits:               srv.CacheServes,
		PanicsRecovered:              srv.PanicsRecovered,
		DegradedServes:               srv.DegradedServes,
		CircuitOpens:                 srv.CircuitOpens,
		CtxCancels:                   srv.CtxCancels,
	}
}

// WriteProm writes the snapshot in Prometheus text exposition format, one
// series per field, named by the fields' prom struct tags. amop-serve's
// /metrics endpoint and its shutdown counter dump both go through this one
// writer, so the two can never drift apart field-by-field.
func (c PerfCounters) WriteProm(w io.Writer) {
	v := reflect.ValueOf(c)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		name := t.Field(i).Tag.Get("prom")
		if name == "" {
			continue
		}
		fmt.Fprintf(w, "%s %d\n", name, v.Field(i).Int())
	}
}
