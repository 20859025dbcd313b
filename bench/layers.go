package main

import (
	"runtime"

	"github.com/nlstencil/amop"
	"github.com/nlstencil/amop/internal/analytic"
	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/fft"
	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/obs"
	"github.com/nlstencil/amop/internal/serve"
)

// counters is a snapshot of the cumulative work counters the program's
// modules already export, plus the Go runtime's allocation and GC totals.
// The traced run samples it around each op and keeps the differences.
type counters struct {
	fftTransforms, fftBytes               int64
	specHits, specMisses                  int64
	symMisses, crossRes                   int64
	memoHits, memoMisses                  int64
	tierServes, tierFallbacks             int64
	bndHits, bndMisses, chebHits, chebMis int64
	srv                                   serve.Stats
	allocBytes, gcCycles, gcPauseNs       uint64
}

func readCounters() counters {
	var c counters
	c.fftTransforms, c.fftBytes = fft.SoATransforms(), fft.TransformedBytes()
	c.specHits, c.specMisses, _, _ = linstencil.SpectrumCacheStats()
	_, c.symMisses, c.crossRes = linstencil.SymbolCacheStats()
	c.memoHits, c.memoMisses = amop.RepricingMemoStats()
	c.tierServes, c.tierFallbacks, _ = amop.TierStats()
	c.bndHits, c.bndMisses = analytic.BoundaryCacheStats()
	c.chebHits, c.chebMis = analytic.ChebCacheStats()
	c.srv = serve.ReadStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.allocBytes, c.gcCycles, c.gcPauseNs = ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs
	return c
}

// add accumulates the difference after-before into c.
func (c *counters) add(after, before counters) {
	c.fftTransforms += after.fftTransforms - before.fftTransforms
	c.fftBytes += after.fftBytes - before.fftBytes
	c.specHits += after.specHits - before.specHits
	c.specMisses += after.specMisses - before.specMisses
	c.symMisses += after.symMisses - before.symMisses
	c.crossRes += after.crossRes - before.crossRes
	c.memoHits += after.memoHits - before.memoHits
	c.memoMisses += after.memoMisses - before.memoMisses
	c.tierServes += after.tierServes - before.tierServes
	c.tierFallbacks += after.tierFallbacks - before.tierFallbacks
	c.bndHits += after.bndHits - before.bndHits
	c.bndMisses += after.bndMisses - before.bndMisses
	c.chebHits += after.chebHits - before.chebHits
	c.chebMis += after.chebMis - before.chebMis
	c.srv.TickReprices += after.srv.TickReprices - before.srv.TickReprices
	c.srv.TickSkips += after.srv.TickSkips - before.srv.TickSkips
	c.srv.CoalescedRequests += after.srv.CoalescedRequests - before.srv.CoalescedRequests
	c.srv.StaleServes += after.srv.StaleServes - before.srv.StaleServes
	c.srv.CacheServes += after.srv.CacheServes - before.srv.CacheServes
	c.srv.DegradedServes += after.srv.DegradedServes - before.srv.DegradedServes
	c.allocBytes += after.allocBytes - before.allocBytes
	c.gcCycles += after.gcCycles - before.gcCycles
	c.gcPauseNs += after.gcPauseNs - before.gcPauseNs
}

// stageTimes sums span time by name, in milliseconds. Names are the
// program's obs stage names plus the benchmark's own spans ("build").
type stageTimes map[string]float64

// attributed is the time covered by the op's top-level layer spans. The span
// tree is: op > {build, snapshot, tier, memo, budget_wait, publish,
// solve_lattice > fft_evolve, solve_analytic > {boundary_solve, quadrature}}.
// Where the program records no solve span (a scenario sweep passes no trace
// to its engine), the solve's children are top level.
func (s stageTimes) attributed() float64 {
	t := s["build"] + s["snapshot"] + s["tier"] + s["memo"] + s["budget_wait"] + s["publish"]
	if s["solve_lattice"] > 0 {
		t += s["solve_lattice"]
	} else {
		t += s["fft_evolve"]
	}
	if s["solve_analytic"] > 0 {
		t += s["solve_analytic"]
	} else {
		t += s["boundary_solve"] + s["quadrature"]
	}
	return t
}

// selfTime is a solve span minus its children; 0 when the span is absent.
func (s stageTimes) selfTime(stage string, children ...string) float64 {
	if s[stage] == 0 {
		return 0
	}
	t := s[stage]
	for _, c := range children {
		t -= s[c]
	}
	return t
}

// layerRun accumulates everything the traced run measures for one workload
// and turns it into the per-layer metrics.
type layerRun struct {
	ops       int        // traced ops
	wallMs    float64    // traced op wall time, summed
	stages    stageTimes // span time over the traced ops
	evolveN   int64      // fft_evolve span count
	ctr       counters   // counter deltas over the traced ops
	fb        fbstencil.Stats
	direct    bool                 // solve_lattice spans are the benchmark's own fbstencil solves
	builds    map[string][]float64 // model build spans by model, ms
	p1, pN    []float64            // untraced op latency at p=1 and p=nproc, ms
	unique    float64              // scenario plan repricings, summed
	planCells float64              // scenario naive repricing count, summed
	fixed     map[string]float64   // metrics measured outside the op loop
}

func newLayerRun() *layerRun {
	return &layerRun{stages: stageTimes{}, builds: map[string][]float64{}, fixed: map[string]float64{}}
}

// addTrace folds one finished trace into the run: its stage times and its
// fft_evolve span count, with wallMs the wall time of the work it covers.
func (l *layerRun) addTrace(snap obs.TraceSnapshot, wallMs float64) {
	l.wallMs += wallMs
	for _, st := range snap.Stages {
		l.stages[st.Stage] += st.Ms
		if st.Stage == "fft_evolve" {
			l.evolveN += st.Count
		}
	}
}

// readHistograms takes the latency histograms and the spectrum-cache
// footprint the traced ops left behind. Call it before anything else prices
// (the reference check), since the histograms are process-wide.
func (l *layerRun) readHistograms() {
	l.fixed["analytic.cold_p50_us"] = float64(obs.SolveLatency.With("analytic_cold").Snapshot().P50) / 1e3
	l.fixed["analytic.warm_p50_us"] = float64(obs.SolveLatency.With("analytic_warm").Snapshot().P50) / 1e3
	l.fixed["par.budget_wait_p99_us"] = float64(obs.BudgetWait.Snapshot().P99) / 1e3
	cw := obs.CoalescerWait.Snapshot()
	l.fixed["serve.coalescer_wait_p50_ms"] = float64(cw.P50) / 1e6
	l.fixed["serve.coalescer_wait_p99_ms"] = float64(cw.P99) / 1e6
	_, _, bytes, _ := linstencil.SpectrumCacheStats()
	l.fixed["linstencil.cache_mb"] = float64(bytes) / (1 << 20)
}

// emit reports every per-layer metric, in the order of the perLayer table.
func (l *layerRun) emit(m *metricSet) {
	ops := float64(max(l.ops, 1))
	per := func(x float64) float64 { return x / ops }
	st, c := l.stages, l.ctr
	fbCells := float64(l.fb.FFTCells.Load() + l.fb.NaiveCells.Load())
	v := map[string]float64{
		"fft.transforms":                per(float64(c.fftTransforms)),
		"fft.bytes":                     per(float64(c.fftBytes)),
		"linstencil.evolve_ms":          per(st["fft_evolve"]),
		"linstencil.evolve_calls":       per(float64(l.evolveN)),
		"linstencil.spectrum_hits":      per(float64(c.specHits)),
		"linstencil.spectrum_misses":    per(float64(c.specMisses)),
		"linstencil.spectrum_hit_ratio": ratio(float64(c.specHits), float64(c.specHits+c.specMisses)),
		"linstencil.symbol_misses":      per(float64(c.symMisses)),
		"linstencil.crossres_hits":      per(float64(c.crossRes)),
		"fbstencil.trapezoids":          per(float64(l.fb.Trapezoids.Load())),
		"fbstencil.fft_cells":           per(float64(l.fb.FFTCells.Load())),
		"fbstencil.naive_cells":         per(float64(l.fb.NaiveCells.Load())),
		"analytic.boundary_ms":          per(st["boundary_solve"]),
		"analytic.quadrature_ms":        per(st["quadrature"]),
		"analytic.boundary_hits":        per(float64(c.bndHits)),
		"analytic.boundary_misses":      per(float64(c.bndMisses)),
		"analytic.boundary_hit_ratio":   ratio(float64(c.bndHits), float64(c.bndHits+c.bndMisses)),
		"analytic.cheb_hits":            per(float64(c.chebHits)),
		"analytic.cheb_misses":          per(float64(c.chebMis)),
		"batch.memo_hits":               per(float64(c.memoHits)),
		"batch.memo_misses":             per(float64(c.memoMisses)),
		"batch.memo_hit_ratio":          ratio(float64(c.memoHits), float64(c.memoHits+c.memoMisses)),
		"batch.memo_ms":                 per(st["memo"]),
		"batch.tier_ms":                 per(st["tier"]),
		"tier.analytic_serves":          per(float64(c.tierServes)),
		"tier.fallbacks":                per(float64(c.tierFallbacks)),
		"scenario.unique_repricings":    per(l.unique),
		"scenario.dedup_ratio":          ratio(l.unique, l.planCells),
		"par.budget_wait_ms":            per(st["budget_wait"]),
		"par.speedup":                   ratio(quantile(l.p1, 0.5), quantile(l.pN, 0.5)),
		"serve.tick_reprices":           per(float64(c.srv.TickReprices)),
		"serve.tick_skips":              per(float64(c.srv.TickSkips)),
		"serve.skip_ratio":              ratio(float64(c.srv.TickSkips), float64(c.srv.TickSkips+c.srv.TickReprices)),
		"serve.coalesced":               per(float64(c.srv.CoalescedRequests)),
		"serve.cache_serves":            per(float64(c.srv.CacheServes)),
		"serve.stale_serves":            per(float64(c.srv.StaleServes)),
		"serve.degraded_serves":         per(float64(c.srv.DegradedServes)),
		"runtime.alloc_mb":              per(float64(c.allocBytes) / (1 << 20)),
		"runtime.gc_cycles":             per(float64(c.gcCycles)),
		"runtime.gc_pause_ms":           per(float64(c.gcPauseNs) / 1e6),
		"obs.traced_wall_ms":            per(l.wallMs),
		"obs.unattributed_ms":           per(l.wallMs - st.attributed()),
		"obs.unattributed_pct":          100 * ratio(l.wallMs-st.attributed(), l.wallMs),
	}
	// A solve_lattice span is either the batch engine's (containing model
	// construction and dispatch) or, on lattice-deep, the benchmark's own
	// span around the free-boundary solver alone.
	latticeSelf := per(st.selfTime("solve_lattice", "fft_evolve"))
	if l.direct {
		v["fbstencil.self_ms"] = latticeSelf
		v["fbstencil.ns_per_cell"] = ratio(st["solve_lattice"]*1e6, fbCells)
	} else {
		v["batch.solve_lattice_self_ms"] = latticeSelf
	}
	v["batch.solve_analytic_self_ms"] = per(st.selfTime("solve_analytic", "boundary_solve", "quadrature"))
	for model, xs := range l.builds {
		v[model+".build_ms"] = quantile(xs, 0.5)
	}
	for k, x := range l.fixed {
		v[k] = x
	}
	for _, d := range perLayer {
		m.add(d.name, v[d.name], l.ops)
	}
}
