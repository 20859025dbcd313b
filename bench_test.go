// Benchmarks regenerating each of the paper's tables and figures at fixed
// representative sizes. Run everything with:
//
//	go test -bench=. -benchmem
//
// The full parameter sweeps (with CSV output) live in cmd/amop-bench; these
// testing.B entry points pin one size per series so `go test -bench` gives a
// complete, quick cross-section of every experiment.
package amop_test

import (
	"math"
	"strconv"
	"sync"
	"testing"

	"github.com/nlstencil/amop"
	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/cachesim"
	"github.com/nlstencil/amop/internal/energy"
	"github.com/nlstencil/amop/internal/fft"
	"github.com/nlstencil/amop/internal/harness"
	"github.com/nlstencil/amop/internal/lattice"
	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/scratch"
	"github.com/nlstencil/amop/internal/topm"
)

const (
	benchT     = 1 << 14 // wall-clock series (Figure 5)
	benchScalT = 1 << 15 // Table 5 worker-scaling series
	benchSimT  = 1 << 11 // simulated-counter series (Figures 6, 7, 10)
)

// The paper's cases (model x algorithm) are defined once, in
// internal/harness; these benchmarks time them at one size each.
var (
	fftBopm     = harness.Case{Model: "bopm", Alg: "fft"}
	qlBopm      = harness.Case{Model: "bopm", Alg: "ql"}
	zbBopm      = harness.Case{Model: "bopm", Alg: "zb"}
	recBopm     = harness.Case{Model: "bopm", Alg: "rec"}
	naiveBopm   = harness.Case{Model: "bopm", Alg: "naive"}
	fftTopm     = harness.Case{Model: "topm", Alg: "fft"}
	vanillaTopm = harness.Case{Model: "topm", Alg: "vanilla"}
	fftBsm      = harness.Case{Model: "bsm", Alg: "fft"}
	vanillaBsm  = harness.Case{Model: "bsm", Alg: "vanilla"}
)

func mustBuild(b *testing.B, c harness.Case, T int) harness.Solver {
	b.Helper()
	s, err := c.Build(T)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchCase times c's solve at T steps.
func benchCase(b *testing.B, c harness.Case, T int) {
	s := mustBuild(b, c, T)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReplay replays c at T steps on a fresh simulated SKX hierarchy per
// iteration and reports the simulated L1 and L2 misses and the modelled
// dynamic energy.
func benchReplay(b *testing.B, c harness.Case, T int) {
	s := mustBuild(b, c, T)
	em := energy.Skylake()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := cachesim.NewSKX()
		if err := s.Replay(h); err != nil {
			b.Fatal(err)
		}
		ctr := h.Snapshot()
		b.ReportMetric(float64(ctr.L1Misses), "L1miss")
		b.ReportMetric(float64(ctr.L2Misses), "L2miss")
		b.ReportMetric(em.Energy(ctr, 0).Total*1e3, "mJ(dyn)")
	}
}

// --- Figure 5: running time, and the serial work classes of Table 2 ----------

func BenchmarkFig5aFFTBopm(b *testing.B)          { benchCase(b, fftBopm, benchT) }
func BenchmarkFig5aQlBopm(b *testing.B)           { benchCase(b, qlBopm, benchT) }
func BenchmarkFig5aZbBopm(b *testing.B)           { benchCase(b, zbBopm, benchT) }
func BenchmarkFig5bFFTTopm(b *testing.B)          { benchCase(b, fftTopm, benchT) }
func BenchmarkFig5bVanillaTopm(b *testing.B)      { benchCase(b, vanillaTopm, benchT) }
func BenchmarkFig5cFFTBsm(b *testing.B)           { benchCase(b, fftBsm, benchT) }
func BenchmarkFig5cVanillaBsm(b *testing.B)       { benchCase(b, vanillaBsm, benchT) }
func BenchmarkTable2RecursiveBopm(b *testing.B)   { benchCase(b, recBopm, benchT) }
func BenchmarkTable2SerialNaiveBopm(b *testing.B) { benchCase(b, naiveBopm, benchT) }

// --- Lattice fast calls and puts --------------------------------------------

// benchLatticeFast times solve on the binomial and trinomial models at each
// step count.
func benchLatticeFast(b *testing.B, steps []int, solve func(*lattice.Model) (float64, error)) {
	for _, T := range steps {
		for _, tree := range []struct {
			name string
			new  func(option.Params, int) (*lattice.Model, error)
		}{{"bopm", bopm.New}, {"topm", topm.New}} {
			m, err := tree.new(option.Default(), T)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(tree.name+"/T="+strconv.Itoa(T), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := solve(m); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPriceFastCall times the binomial and trinomial fast American
// calls, which run as the fast puts of their swapped contracts.
func BenchmarkPriceFastCall(b *testing.B) {
	benchLatticeFast(b, []int{333, 4000, 1 << 16}, (*lattice.Model).PriceFast)
}

// BenchmarkPriceFastPut times the binomial and trinomial fast American puts
// (an extension beyond the paper), which run on the same engine.
func BenchmarkPriceFastPut(b *testing.B) {
	benchLatticeFast(b, []int{333, 4000, 1 << 16}, (*lattice.Model).PriceFastPut)
}

// --- Table 5: scaling with worker count p ------------------------------------

func benchWorkers(b *testing.B, c harness.Case, p int) {
	prev := par.SetWorkers(p)
	defer par.SetWorkers(prev)
	benchCase(b, c, benchScalT)
}

func BenchmarkTable5FFTBopmP1(b *testing.B) { benchWorkers(b, fftBopm, 1) }
func BenchmarkTable5FFTBopmP2(b *testing.B) { benchWorkers(b, fftBopm, 2) }
func BenchmarkTable5FFTBopmP4(b *testing.B) { benchWorkers(b, fftBopm, 4) }
func BenchmarkTable5FFTBopmP8(b *testing.B) { benchWorkers(b, fftBopm, 8) }
func BenchmarkTable5QlBopmP1(b *testing.B)  { benchWorkers(b, qlBopm, 1) }

// --- Figures 6, 7, 10: simulated counters + energy model ---------------------

func BenchmarkFig67TracedFFTBopm(b *testing.B)     { benchReplay(b, fftBopm, benchSimT) }
func BenchmarkFig67TracedQlBopm(b *testing.B)      { benchReplay(b, qlBopm, benchSimT) }
func BenchmarkFig67TracedZbBopm(b *testing.B)      { benchReplay(b, zbBopm, benchSimT) }
func BenchmarkFig67TracedFFTTopm(b *testing.B)     { benchReplay(b, fftTopm, benchSimT) }
func BenchmarkFig67TracedVanillaTopm(b *testing.B) { benchReplay(b, vanillaTopm, benchSimT) }
func BenchmarkFig67TracedFFTBsm(b *testing.B)      { benchReplay(b, fftBsm, benchSimT) }
func BenchmarkFig67TracedVanillaBsm(b *testing.B)  { benchReplay(b, vanillaBsm, benchSimT) }

// --- Extensions --------------------------------------------------------------

func BenchmarkBermudanQuarterly(b *testing.B) {
	o := amop.Option{Type: amop.Put, S: 127.62, K: 130, R: 0.00163, V: 0.2, Y: 0.0163, E: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := amop.PriceBermudan(o, benchT, benchT/4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEuropeanFFT(b *testing.B) {
	m, err := bopm.New(option.Default(), benchT)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PriceEuropean(option.Call)
	}
}

func BenchmarkGreeks(b *testing.B) {
	o := amop.Option{Type: amop.Call, S: 127.62, K: 130, R: 0.00163, V: 0.2, Y: 0.0163, E: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := amop.GreeksAmerican(o, 1<<12); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fast-path micro-benchmarks ----------------------------------------------
//
// The real-input FFT and the kernel-spectrum cache are the two levers behind
// the fast solvers' constants; these pin their time and allocation behavior
// at a representative size so wins (or regressions) in either show up in
// `go test -bench` directly, next to the solver-level numbers they feed.

// BenchmarkEvolveCone measures one 64K-row, 16K-step linear evolution — the
// exact call shape the trapezoid recursion issues — on the real-input cached
// path, recycling the result row as the solvers do.
func BenchmarkEvolveCone(b *testing.B) {
	s := linstencil.Stencil{MinOff: 0, W: []float64{0.48, 0.51}}
	n := 1 << 16
	row := make([]float64, n)
	for i := range row {
		row[i] = math.Sin(float64(i))
	}
	b.SetBytes(int64(8 * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ := linstencil.EvolveCone(row, s, n/4)
		scratch.PutFloats(out)
	}
}

// BenchmarkRealFFTSoAPlanes measures a forward+inverse real round trip at
// 256K through the transform the stencil evolution takes.
func BenchmarkRealFFTSoAPlanes(b *testing.B) {
	n := 1 << 18
	rp := fft.RPlanFor(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(float64(i))
	}
	sr := make([]float64, rp.HalfLen())
	si := make([]float64, rp.HalfLen())
	b.SetBytes(int64(8 * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.ForwardSoA(x, sr, si)
		rp.InverseSoA(sr, si, x)
	}
}

// --- Batch engine: a 45-contract chain (9 strikes x 5 expiries, T=20k) ------
//
// BenchmarkBatchEngine prices the chain through the bounded-pool batch
// engine; BenchmarkBatchNaiveFanout is the ad-hoc baseline examples/chain
// used to hand-roll — one goroutine per contract on top of the internally
// parallel pricers. The engine must be no slower while keeping the worker
// count bounded and aborting nothing.

func chainRequests() []amop.Request {
	underlying := amop.Option{Type: amop.Call, S: 127.62, R: 0.00163, V: 0.21, Y: 0.0163}
	strikes := []float64{100, 110, 120, 125, 130, 135, 140, 150, 160}
	expiries := []float64{1.0 / 12, 0.25, 0.5, 1.0, 2.0}
	reqs := make([]amop.Request, 0, len(strikes)*len(expiries))
	for _, k := range strikes {
		for _, e := range expiries {
			o := underlying
			o.K, o.E = k, e
			reqs = append(reqs, amop.Request{
				Option: o, Model: amop.AutoModel, Config: amop.Config{Steps: 20_000},
			})
		}
	}
	return reqs
}

func BenchmarkBatchEngine(b *testing.B) {
	reqs := chainRequests()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, r := range amop.PriceBatch(reqs, amop.BatchOptions{}) {
			if r.Err != nil {
				b.Fatalf("request %d: %v", j, r.Err)
			}
		}
	}
}

func BenchmarkBatchNaiveFanout(b *testing.B) {
	reqs := chainRequests()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prices := make([]float64, len(reqs))
		errs := make([]error, len(reqs))
		var wg sync.WaitGroup
		for j, req := range reqs {
			wg.Add(1)
			go func(j int, req amop.Request) {
				defer wg.Done()
				prices[j], errs[j] = amop.PriceAmerican(req.Option, req.Config.Steps)
			}(j, req)
		}
		wg.Wait()
		for j, err := range errs {
			if err != nil {
				b.Fatalf("request %d: %v", j, err)
			}
		}
	}
}

// BenchmarkChainGreeksIV prices a 12-quote chain with Greeks and round-trip
// implied vols — the workload the repricing memo and the Newton-seeded IV
// solver amortize. It reports solves/quote: the repricing memo's misses per
// quote, every solve the chain ran.
func BenchmarkChainGreeksIV(b *testing.B) {
	underlying := amop.Option{Type: amop.Call, S: 127.62, R: 0.00163, V: 0.21, Y: 0.0163}
	strikes := []float64{110, 120, 125, 130, 135, 140}
	expiries := []float64{0.5, 1.0}
	opts := amop.ChainOptions{Steps: 4000}
	b.ReportAllocs()
	_, misses0 := amop.RepricingMemoStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, q := range amop.Chain(underlying, strikes, expiries, opts) {
			if q.Err != nil {
				b.Fatalf("quote %d: %v", j, q.Err)
			}
		}
	}
	b.StopTimer()
	_, misses1 := amop.RepricingMemoStats()
	b.ReportMetric(float64(misses1-misses0)/float64(b.N*len(strikes)*len(expiries)), "solves/quote")
}

// BenchmarkScenarioSweep and BenchmarkScenarioNaiveFanout track the
// scenario-sweep engine against the per-scenario PriceBatch fan-out it
// replaces, on a reduced cut of the 45x25 risk grid (9 contracts x 9
// scenarios so one iteration stays benchtime-friendly). The full grid is the
// seeded benchmark's sweep-grid workload (bench/).
func benchSweepInputs() ([]amop.Request, []amop.Scenario) {
	base := amop.Option{S: 127.62, R: 0.00163, V: 0.21, Y: 0.0163, E: 0.75}
	var reqs []amop.Request
	for i := 0; i < 9; i++ {
		o := base
		o.K = 112 + 4*float64(i)
		if i%3 == 2 {
			o.Type = amop.Put
		}
		reqs = append(reqs, amop.Request{Option: o, Model: amop.AutoModel, Config: amop.Config{Steps: 2000}})
	}
	scenarios := amop.ScenarioGrid{
		SpotBumps: []float64{-0.05, 0, 0.05},
		VolBumps:  []float64{-0.02, 0, 0.02},
	}.Scenarios()
	return reqs, scenarios
}

func BenchmarkScenarioSweep(b *testing.B) {
	reqs, scenarios := benchSweepInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw := amop.ScenarioSweep(reqs, scenarios, amop.SweepOptions{})
		for j, r := range sw.Results {
			if r.Err != nil {
				b.Fatalf("cell %d: %v", j, r.Err)
			}
		}
	}
}

func BenchmarkScenarioNaiveFanout(b *testing.B) {
	reqs, scenarios := benchSweepInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range scenarios {
			bumped := make([]amop.Request, len(reqs))
			for c, req := range reqs {
				req.Option = sc.Apply(req.Option)
				bumped[c] = req
			}
			for j, r := range amop.PriceBatch(bumped, amop.BatchOptions{}) {
				if r.Err != nil {
					b.Fatalf("scenario %v contract %d: %v", sc.Label(), j, r.Err)
				}
			}
		}
	}
}

// --- live pricing server ----------------------------------------------------

func benchServer(b *testing.B) *amop.Server {
	b.Helper()
	reqs, _ := benchSweepInputs()
	entries := make([]amop.BookEntry, len(reqs))
	for i, r := range reqs {
		entries[i] = amop.BookEntry{Option: r.Option, Model: r.Model, Config: r.Config}
	}
	s, err := amop.NewServer(entries, amop.ServerOptions{
		SpotBucket: 0.25, VolBucket: 0.01, RateBucket: 0.0005,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkServerQuoteCached is the serving fast path: a quote answered
// straight from the clean surface.
func BenchmarkServerQuoteCached(b *testing.B) {
	s := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Quote(i % s.Contracts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerTickSkip is the incremental no-op: a tick whose inputs stay
// inside every quantization bucket re-solves nothing.
func BenchmarkServerTickSkip(b *testing.B) {
	s := benchServer(b)
	m, _ := s.Market("")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Spot += 1e-9 // wanders inside the 0.25 spot bucket
		if _, err := s.Tick("", m); err != nil {
			b.Fatal(err)
		}
	}
}
