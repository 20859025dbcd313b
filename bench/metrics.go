package main

import (
	"math"
	"sort"
)

// metricDef describes one metric: its unit, which direction is better, and
// for end-to-end metrics the regression bound -compare applies. bound is a
// share of the parent's median; abs is an absolute allowance added to it.
type metricDef struct {
	name   string
	unit   string
	higher bool
	bound  float64
	abs    float64
}

// endToEnd are the user-visible metrics every workload reports with -trace 0.
// They are the end_to_end list of BENCHMARK.json.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "throughput_ops_s", unit: "ops/s", higher: true, bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", bound: 0.25},
	{name: "heap_peak_mb", unit: "MiB", bound: 0.20},
}

// workloadEndToEnd are end-to-end metrics only some workloads have. They are
// printed and recorded, and -compare gates them, but they are not part of the
// fixed metric set every workload must report. Timing bounds are 0.25: on a
// shared 2-CPU machine run-to-run spreads reach 10-20%.
var workloadEndToEnd = []metricDef{
	{name: "bopm_p50_ms", unit: "ms", bound: 0.25},
	{name: "topm_p50_ms", unit: "ms", bound: 0.25},
	{name: "bsm_p50_ms", unit: "ms", bound: 0.25},
	{name: "latency_p90_ms", unit: "ms", bound: 0.25},
	{name: "latency_p99_ms", unit: "ms", bound: 0.25},
	{name: "fresh_quote_p50_ms", unit: "ms", bound: 0.25},
	{name: "fresh_quote_p90_ms", unit: "ms", bound: 0.25},
	{name: "cached_quote_ns", unit: "ns", bound: 0.25},
	{name: "error_rate", unit: "fraction", bound: 0},
	{name: "max_abs_err", unit: "price", bound: 0.10, abs: 1e-9},
}

// perLayer are the metrics of the traced run (-trace 1), the per_layer list
// of BENCHMARK.json. Every workload reports all of them; a layer the
// workload does not exercise reads 0. Counts and times are per op unless
// the name says otherwise.
var perLayer = []metricDef{
	{name: "fft.transforms", unit: "count"},
	{name: "fft.bytes", unit: "bytes"},
	{name: "fft.fwd_us.n4096", unit: "us"},
	{name: "fft.inv_us.n4096", unit: "us"},
	{name: "fft.fwd_us.n131072", unit: "us"},
	{name: "fft.inv_us.n131072", unit: "us"},
	{name: "fft.gbps.n131072", unit: "GB/s", higher: true},
	{name: "linstencil.evolve_ms", unit: "ms"},
	{name: "linstencil.evolve_calls", unit: "count"},
	{name: "linstencil.evolve_cone_ms", unit: "ms"},
	{name: "linstencil.spectrum_hits", unit: "count", higher: true},
	{name: "linstencil.spectrum_misses", unit: "count"},
	{name: "linstencil.spectrum_hit_ratio", unit: "ratio", higher: true},
	{name: "linstencil.symbol_misses", unit: "count"},
	{name: "linstencil.crossres_hits", unit: "count", higher: true},
	{name: "linstencil.cache_mb", unit: "MiB"},
	{name: "fbstencil.self_ms", unit: "ms"},
	{name: "fbstencil.trapezoids", unit: "count"},
	{name: "fbstencil.fft_cells", unit: "count"},
	{name: "fbstencil.naive_cells", unit: "count"},
	{name: "fbstencil.ns_per_cell", unit: "ns"},
	{name: "fbstencil.work_exponent", unit: "exponent"},
	{name: "bopm.build_ms", unit: "ms"},
	{name: "topm.build_ms", unit: "ms"},
	{name: "bsm.build_ms", unit: "ms"},
	{name: "analytic.boundary_ms", unit: "ms"},
	{name: "analytic.quadrature_ms", unit: "ms"},
	{name: "analytic.boundary_hits", unit: "count", higher: true},
	{name: "analytic.boundary_misses", unit: "count"},
	{name: "analytic.boundary_hit_ratio", unit: "ratio", higher: true},
	{name: "analytic.cheb_hits", unit: "count", higher: true},
	{name: "analytic.cheb_misses", unit: "count"},
	{name: "analytic.cold_p50_us", unit: "us"},
	{name: "analytic.warm_p50_us", unit: "us"},
	{name: "batch.memo_hits", unit: "count", higher: true},
	{name: "batch.memo_misses", unit: "count"},
	{name: "batch.memo_hit_ratio", unit: "ratio", higher: true},
	{name: "batch.memo_ms", unit: "ms"},
	{name: "batch.tier_ms", unit: "ms"},
	{name: "batch.solve_lattice_self_ms", unit: "ms"},
	{name: "batch.solve_analytic_self_ms", unit: "ms"},
	{name: "tier.analytic_serves", unit: "count"},
	{name: "tier.fallbacks", unit: "count"},
	{name: "scenario.unique_repricings", unit: "count"},
	{name: "scenario.dedup_ratio", unit: "ratio"},
	{name: "par.budget_wait_ms", unit: "ms"},
	{name: "par.budget_wait_p99_us", unit: "us"},
	{name: "par.speedup", unit: "ratio", higher: true},
	{name: "serve.tick_reprices", unit: "count"},
	{name: "serve.tick_skips", unit: "count", higher: true},
	{name: "serve.skip_ratio", unit: "ratio", higher: true},
	{name: "serve.coalesced", unit: "count"},
	{name: "serve.cache_serves", unit: "count", higher: true},
	{name: "serve.stale_serves", unit: "count"},
	{name: "serve.degraded_serves", unit: "count"},
	{name: "serve.flights", unit: "count"},
	{name: "serve.flight_p50_ms", unit: "ms"},
	{name: "serve.flight_p90_ms", unit: "ms"},
	{name: "serve.snapshot_ms", unit: "ms"},
	{name: "serve.publish_ms", unit: "ms"},
	{name: "serve.coalescer_wait_p50_ms", unit: "ms"},
	{name: "serve.coalescer_wait_p99_ms", unit: "ms"},
	{name: "serve.tick_us_p50", unit: "us"},
	{name: "serve.tick_us_p99", unit: "us"},
	{name: "serve.gen_lag_p99_ms", unit: "ms"},
	{name: "runtime.alloc_mb", unit: "MiB"},
	{name: "runtime.gc_cycles", unit: "count"},
	{name: "runtime.gc_pause_ms", unit: "ms"},
	{name: "obs.trace_overhead_pct", unit: "%"},
	{name: "obs.traced_wall_ms", unit: "ms"},
	{name: "obs.unattributed_ms", unit: "ms"},
	{name: "obs.unattributed_pct", unit: "%"},
}

// lookupMetric finds a metric's definition in any of the three tables.
func lookupMetric(name string) (metricDef, bool) {
	for _, table := range [][]metricDef{endToEnd, workloadEndToEnd, perLayer} {
		for _, d := range table {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// value is one measured metric as a run reports it. For a metric taken from
// a distribution (per-op latencies, setup repetitions) Q1 and Q3 are that
// distribution's quartiles and N its sample count.
type value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// metricSet accumulates a run's values in report order.
type metricSet struct{ vals []value }

// add records a single-valued metric measured over n samples.
func (m *metricSet) add(name string, v float64, n int) {
	d, _ := lookupMetric(name)
	m.vals = append(m.vals, value{Name: name, Value: v, Unit: d.unit, N: n})
}

// addDist records quantile q of xs, with xs's quartiles.
func (m *metricSet) addDist(name string, xs []float64, q float64) {
	d, _ := lookupMetric(name)
	m.vals = append(m.vals, value{
		Name: name, Value: quantile(xs, q), Unit: d.unit, N: len(xs),
		Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75),
	})
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (the "inclusive" definition); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
