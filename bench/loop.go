package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/nlstencil/amop"
	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/obs"
	"github.com/nlstencil/amop/internal/par"
)

// config is one run's settings. tiny shrinks every workload to the size the
// unit tests run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// size picks the full-size or the test-size value of a workload parameter.
func (c config) size(full, tiny int) int {
	if c.tiny {
		return tiny
	}
	return full
}

// A run sets up several fresh instances and reports the median as setup_s:
// at least minSetups, and more while the set-ups so far took under
// setupBudget, up to maxSetups. Each prices a market of its own, so none
// finds its stencil spectra or exercise boundaries already cached.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 500 * time.Millisecond
)

// setupsDone reports whether n set-ups that took spent seconds suffice.
func setupsDone(n int, spent float64) bool {
	return n >= maxSetups || (n >= minSetups && spent >= setupBudget.Seconds())
}

// outcome is what one run reports.
type outcome struct {
	metrics   metricSet
	attempted int
	failed    int
	problems  []string
}

// problem records a failed correctness check.
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) correct() bool { return len(o.problems) == 0 && o.failed == 0 }

// closedLoop is a workload driven by one caller that sends the next op when
// the previous one returns.
type closedLoop interface {
	// setup builds a fresh instance on market variant rep and runs its
	// first, cold op.
	setup(rep int) error
	// op runs operation i and reports the work units it completed (solves,
	// chain cells, sweep cells) and a label grouping ops for per-group
	// latency. tc is nil in the end-to-end run.
	op(ctx context.Context, i int, tc *traceCtx) (units int, label string, err error)
	// verify checks the outputs of the op just run. It is not timed.
	verify(i int) error
	// reference compares outputs kept by verify against independent
	// reference prices and returns the worst absolute difference.
	reference() (maxAbsErr float64, err error)
	// traceOps is the number of ops the traced run measures.
	traceOps() int
}

// traceCtx carries the traced run's span state into an op. tr is nil on
// untraced passes; record is set only on the pass whose spans and counts
// become the per-layer metrics.
type traceCtx struct {
	tr     *obs.Trace
	record bool
	run    *layerRun
	fb     *fbstencil.Stats
	own    stageTimes
}

// span records a benchmark-side span around a call into a layer.
func (tc *traceCtx) span(name string, start time.Time) {
	if tc.record {
		tc.own[name] += ms(time.Since(start))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runClosed measures a closed-loop workload: setup repetitions, then ops
// back to back for the run's duration, then the reference check.
func runClosed(c config, w closedLoop, out *outcome) error {
	if c.trace {
		return traceClosed(c, w, out)
	}
	var setup []float64
	for rep := 0; !setupsDone(len(setup), sum(setup)); rep++ {
		start := time.Now()
		if err := w.setup(rep); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	runtime.GC()

	var (
		lat, rates []float64
		byLabel    = map[string][]float64{}
		labels     []string
		heapPeak   uint64
	)
	ctx := context.Background()
	start := time.Now()
	lastHeap := start
	for i := 0; i == 0 || time.Since(start) < c.duration(); i++ {
		t0 := time.Now()
		u, label, err := w.op(ctx, i, nil)
		d := time.Since(t0)
		out.attempted++
		if err != nil {
			out.failed++
			out.problem("op %d: %v", i, err)
			continue
		}
		lat = append(lat, ms(d))
		rates = append(rates, float64(u)/d.Seconds())
		if _, ok := byLabel[label]; !ok {
			labels = append(labels, label)
		}
		byLabel[label] = append(byLabel[label], ms(d))
		if err := w.verify(i); err != nil {
			out.problem("op %d: %v", i, err)
		}
		if time.Since(lastHeap) >= heapEvery {
			heapPeak, lastHeap = max(heapPeak, sampleHeap()), time.Now()
		}
	}
	heapPeak = max(heapPeak, sampleHeap())
	maxErr, err := w.reference()
	if err != nil {
		out.problem("reference: %v", err)
	}

	m := &out.metrics
	addEndToEnd(m, setup, rates, lat, heapPeak)
	if len(labels) > 1 {
		for _, l := range labels {
			m.addDist(l+"_p50_ms", byLabel[l], 0.5)
		}
	}
	m.add("error_rate", ratio(float64(out.failed), float64(out.attempted)), out.attempted)
	m.add("max_abs_err", maxErr, 1)
	return nil
}

// addEndToEnd reports the metrics every workload has: set-up time, the
// median per-op rate, op latency (with its tail where the sample has at
// least ten values beyond the percentile) and the peak sampled live heap.
func addEndToEnd(m *metricSet, setup, rates, lat []float64, heapPeak uint64) {
	m.addDist("setup_s", setup, 0.5)
	m.addDist("throughput_ops_s", rates, 0.5)
	m.addDist("latency_p50_ms", lat, 0.50)
	m.add("heap_peak_mb", float64(heapPeak)/(1<<20), len(lat))
	if len(lat) >= 100 {
		m.addDist("latency_p90_ms", lat, 0.90)
	}
	if len(lat) >= 1000 {
		m.addDist("latency_p99_ms", lat, 0.99)
	}
}

// heapEvery is how often a run samples its live heap.
const heapEvery = time.Second

// sampleHeap forces a collection and returns the heap it found reachable:
// what the program retains, independent of when the collector would have
// run. Runs call it between ops, outside any timed region.
func sampleHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// traceClosed is the traced run of a closed-loop workload. It runs at p=1 so
// that span times add up to wall time. Each op first runs traced, on caches
// as cold as the end-to-end run finds them, for the per-layer metrics. Then,
// warmed up by one more run, it runs untraced and traced in alternating
// order, for the tracing overhead, and untraced at p=nproc, for the parallel
// speedup.
func traceClosed(c config, w closedLoop, out *outcome) error {
	defer par.SetWorkers(par.SetWorkers(1))
	if err := w.setup(0); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	obs.Reset()
	l := newLayerRun()
	plain := func(i int) (float64, error) {
		t0 := time.Now()
		_, _, err := w.op(context.Background(), i, &traceCtx{run: l})
		return ms(time.Since(t0)), err
	}
	traced := func(i int, record bool) (float64, error) {
		tc := &traceCtx{tr: obs.StartTrace("bench", c.workload), record: record, run: l, own: stageTimes{}}
		if record {
			tc.fb = &l.fb
		}
		ctx := obs.NewContext(context.Background(), tc.tr)
		prev := obs.SetActive(tc.tr)
		before := readCounters()
		t0 := time.Now()
		_, _, err := w.op(ctx, i, tc)
		wall := ms(time.Since(t0))
		after := readCounters()
		obs.SetActive(prev)
		snap := tc.tr.Finish()
		if record {
			l.ops++
			l.addTrace(snap, wall)
			l.ctr.add(after, before)
			for k, v := range tc.own {
				l.stages[k] += v
			}
		}
		return wall, err
	}
	n := w.traceOps()
	if c.tiny {
		n = min(n, 2)
	}
	for i := 0; i < n; i++ {
		out.attempted++
		if _, err := traced(i, true); err != nil {
			out.failed++
			out.problem("op %d: %v", i, err)
			continue
		}
		if err := w.verify(i); err != nil {
			out.problem("op %d: %v", i, err)
		}
	}
	l.readHistograms()
	var tracedMs, plainMs []float64
	for i := 0; i < n; i++ {
		// A first, discarded run leaves this op's cache entries for the
		// measured ones; alternating their order cancels what it misses.
		if _, err := plain(i); err != nil {
			return err
		}
		var t, p1 float64
		var errT, err1 error
		if i%2 == 0 {
			p1, err1 = plain(i)
			t, errT = traced(i, false)
		} else {
			t, errT = traced(i, false)
			p1, err1 = plain(i)
		}
		par.SetWorkers(0)
		pN, errN := plain(i)
		par.SetWorkers(1)
		if err := firstErr(errT, err1, errN); err != nil {
			return err
		}
		tracedMs, plainMs = append(tracedMs, t), append(plainMs, p1)
		l.p1, l.pN = append(l.p1, p1), append(l.pN, pN)
	}
	l.fixed["obs.trace_overhead_pct"] = 100 * ratio(sum(tracedMs)-sum(plainMs), sum(plainMs))
	if _, err := w.reference(); err != nil {
		out.problem("reference: %v", err)
	}
	isolatedLayers(l.fixed, c.tiny)
	l.emit(&out.metrics)
	return nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkPrice is the check every op's prices pass: finite and at least the
// option's intrinsic value, less tol.
func checkPrice(o amop.Option, p, tol float64) error {
	if math.IsNaN(p) || math.IsInf(p, 0) {
		return fmt.Errorf("%v K=%g E=%g: price %v is not finite", o.Type, o.K, o.E, p)
	}
	if in := intrinsic(o); p < in-tol {
		return fmt.Errorf("%v K=%g E=%g: price %.10g below intrinsic %.10g", o.Type, o.K, o.E, p, in)
	}
	return nil
}

func intrinsic(o amop.Option) float64 {
	if o.Type == amop.Call {
		return math.Max(o.S-o.K, 0)
	}
	return math.Max(o.K-o.S, 0)
}
