package amop

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/nlstencil/amop/internal/fft"
	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/par"
)

func defaultCall() Option {
	return Option{Type: Call, S: 127.62, K: 130, R: 0.00163, V: 0.2, Y: 0.0163, E: 1.0}
}

// PriceBatch must agree with sequential Price for every item, across models
// and configs.
func TestPriceBatchMatchesSequential(t *testing.T) {
	o := defaultCall()
	put := o
	put.Type = Put
	reqs := []Request{
		{Option: o, Model: Binomial, Config: Config{Steps: 800}},
		{Option: o, Model: Trinomial, Config: Config{Steps: 800}},
		{Option: put, Model: BlackScholesFD, Config: Config{Steps: 800}},
		{Option: o, Model: AutoModel, Config: Config{Steps: 600}},
		{Option: put, Model: AutoModel, Config: Config{Steps: 600}},
		{Option: o, Model: Binomial, Config: Config{Steps: 500, Algorithm: Naive}},
		{Option: o, Model: Binomial, Config: Config{Steps: 500, European: true}},
	}
	got := PriceBatch(reqs, BatchOptions{})
	if len(got) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(got), len(reqs))
	}
	for i, req := range reqs {
		want, err := Price(req.Option, resolveModel(req.Option, req.Model, req.Config), req.Config)
		if err != nil {
			t.Fatalf("request %d: sequential price failed: %v", i, err)
		}
		if got[i].Err != nil {
			t.Errorf("request %d: batch error %v", i, got[i].Err)
			continue
		}
		if got[i].Price != want {
			t.Errorf("request %d: batch price %v != sequential %v", i, got[i].Price, want)
		}
	}
}

// One bad contract must never abort the batch: valid items price, invalid
// items carry their own errors.
func TestPriceBatchPartialFailure(t *testing.T) {
	good := defaultCall()
	badSpot := good
	badSpot.S = -1
	badVol := good
	badVol.V = 0
	reqs := []Request{
		{Option: good, Config: Config{Steps: 400}},
		{Option: badSpot, Config: Config{Steps: 400}},                        // invalid market data
		{Option: good, Config: Config{Steps: 0}},                             // invalid steps
		{Option: good, Model: Model(99), Config: Config{Steps: 400}},         // unknown model
		{Option: good, Config: Config{Steps: 400, Algorithm: Algorithm(99)}}, // unknown algorithm
		{Option: badVol, Config: Config{Steps: 400}},                         // invalid vol
		{Option: good, Model: Trinomial, Config: Config{Steps: 400}},         // valid again
	}
	res := PriceBatch(reqs, BatchOptions{})
	wantErr := []bool{false, true, true, true, true, true, false}
	nErr := 0
	for i, r := range res {
		if (r.Err != nil) != wantErr[i] {
			t.Errorf("request %d: err = %v, want error: %v", i, r.Err, wantErr[i])
		}
		if r.Err != nil {
			nErr++
			continue
		}
		if r.Price <= 0 {
			t.Errorf("request %d: non-positive price %v for a valid contract", i, r.Price)
		}
	}
	if nErr != 5 {
		t.Errorf("aggregated %d item errors, want 5", nErr)
	}
}

// Duplicate contracts are priced once and shared through the memo.
func TestBatchEngineMemo(t *testing.T) {
	eng := newEngine()
	o := defaultCall()
	cfg := Config{Steps: 512}
	p1, err := eng.price(o, Binomial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eng.price(o, Binomial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("memoized duplicate priced differently: %v vs %v", p1, p2)
	}
	if len(eng.memo) != 1 {
		t.Errorf("memo holds %d entries after a duplicate request, want 1", len(eng.memo))
	}
}

// The pool must stay bounded at the requested width even with many jobs.
func TestRunPoolBoundedWorkers(t *testing.T) {
	var live, peak atomic.Int64
	runPool(64, 3, false, nil, func(i int) {
		n := live.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		for k := 0; k < 1000; k++ {
			_ = k * k
		}
		live.Add(-1)
	})
	if p := peak.Load(); p > 3 {
		t.Errorf("peak pool concurrency %d exceeds Workers=3", p)
	}
}

// When the outer batch claims the whole spawn budget, inner pricers must run
// serially rather than oversubscribe.
func TestBatchSaturationForcesSerialInner(t *testing.T) {
	prev := par.SetWorkers(4)
	defer par.SetWorkers(prev)
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Option: defaultCall(), Config: Config{Steps: 1024}}
	}
	res := PriceBatch(reqs, BatchOptions{})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	// The real assertion is structural: with 4 workers the batch claims 3
	// spawn tokens, so par.TryAcquire from inner loops can only ever see a
	// zero budget while the pool is saturated. Verify the budget drained
	// and was restored.
	if got := par.TryAcquire(3); got != 3 {
		t.Errorf("spawn budget after batch = %d free tokens, want 3 (leak?)", got)
	} else {
		par.Release(3)
	}
}

// OnResult streams every item exactly once.
func TestPriceBatchOnResultStreams(t *testing.T) {
	reqs := make([]Request, 10)
	for i := range reqs {
		reqs[i] = Request{Option: defaultCall(), Config: Config{Steps: 128 + i}}
	}
	seen := make([]int, len(reqs))
	res := PriceBatch(reqs, BatchOptions{Workers: 4, OnResult: func(i int, r Result) {
		seen[i]++ // serialized by the engine
		if r.Err != nil {
			t.Errorf("request %d: %v", i, r.Err)
		}
	}})
	for i := range seen {
		if seen[i] != 1 {
			t.Errorf("request %d delivered %d times, want 1", i, seen[i])
		}
		if res[i].Price <= 0 {
			t.Errorf("request %d: price %v", i, res[i].Price)
		}
	}
}

func TestPriceBatchEmpty(t *testing.T) {
	if res := PriceBatch(nil, BatchOptions{}); len(res) != 0 {
		t.Errorf("empty batch returned %d results", len(res))
	}
}

// Chain: prices match the single-option API, Greeks and implied vols are the
// single-option API's at a quarter of Steps, bit for bit, Greeks are
// sensible, and the implied-vol round trip recovers the vol mark.
func TestChainRoundTrip(t *testing.T) {
	underlying := Option{Type: Call, S: 127.62, R: 0.00163, V: 0.21, Y: 0.0163}
	strikes := []float64{120, 130}
	expiries := []float64{0.5, 1.0}
	opts := ChainOptions{Steps: 2000}
	quotes := Chain(underlying, strikes, expiries, opts)
	if len(quotes) != 4 {
		t.Fatalf("got %d quotes, want 4", len(quotes))
	}
	for idx, q := range quotes {
		i, j := idx/len(expiries), idx%len(expiries)
		if q.Strike != strikes[i] || q.Expiry != expiries[j] {
			t.Errorf("quote %d: labeled (K=%v, E=%v), want (%v, %v)", idx, q.Strike, q.Expiry, strikes[i], expiries[j])
		}
		if q.Err != nil {
			t.Fatalf("quote %d: %v", idx, q.Err)
		}
		o := underlying
		o.K, o.E = q.Strike, q.Expiry
		want, err := PriceAmerican(o, opts.Steps)
		if err != nil {
			t.Fatal(err)
		}
		if q.Price != want {
			t.Errorf("quote %d: price %v != PriceAmerican %v", idx, q.Price, want)
		}
		side := max(opts.Steps/4, 1)
		g, err := GreeksAmerican(o, side)
		if err != nil {
			t.Fatal(err)
		}
		if greeksBits(q.Greeks) != greeksBits(g) {
			t.Errorf("quote %d: Greeks %+v != GreeksAmerican(o, %d) %+v", idx, q.Greeks, side, g)
		}
		iv, err := ImpliedVol(o, side, q.Price)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(q.ImpliedVol) != math.Float64bits(iv) {
			t.Errorf("quote %d: implied vol %v != ImpliedVol(o, %d, price) %v", idx, q.ImpliedVol, side, iv)
		}
		if q.Greeks.Delta <= 0 || q.Greeks.Delta > 1 {
			t.Errorf("quote %d: call delta %v outside (0, 1]", idx, q.Greeks.Delta)
		}
		if math.Abs(q.ImpliedVol-underlying.V) > 0.02 {
			t.Errorf("quote %d: implied vol %v does not round-trip the %v mark", idx, q.ImpliedVol, underlying.V)
		}
	}
}

// greeksBits returns the bits of g's fields.
func greeksBits(g Greeks) [5]uint64 {
	return [5]uint64{math.Float64bits(g.Delta), math.Float64bits(g.Gamma), math.Float64bits(g.Theta),
		math.Float64bits(g.Vega), math.Float64bits(g.Rho)}
}

// A chain cell with impossible parameters fails alone; its neighbors price.
func TestChainPartialFailure(t *testing.T) {
	underlying := Option{Type: Call, S: 127.62, R: 0.00163, V: 0.21, Y: 0.0163}
	quotes := Chain(underlying, []float64{130, -5}, []float64{1.0}, ChainOptions{Steps: 500})
	if quotes[0].Err != nil {
		t.Errorf("valid cell failed: %v", quotes[0].Err)
	}
	if quotes[1].Err == nil {
		t.Error("negative-strike cell did not report an error")
	}
}

// --- satellite: error-path coverage ------------------------------------------

func TestPriceBermudanBadInterval(t *testing.T) {
	o := defaultCall()
	for _, every := range []int{0, -3} {
		if _, err := PriceBermudan(o, 256, every); err == nil {
			t.Errorf("PriceBermudan(every=%d) returned no error", every)
		} else if !strings.Contains(err.Error(), "must be >= 1") {
			t.Errorf("PriceBermudan(every=%d) error %q does not explain the constraint", every, err)
		}
	}
	if _, err := PriceBermudan(o, 0, 1); err == nil {
		t.Error("PriceBermudan(steps=0) returned no error")
	}
}

func TestPriceUnknownModelAndAlgorithm(t *testing.T) {
	o := defaultCall()
	if _, err := Price(o, Model(42), Config{Steps: 64}); err == nil {
		t.Error("Price with unknown model returned no error")
	}
	if _, err := Price(o, Binomial, Config{Steps: 64, Algorithm: Algorithm(42)}); err == nil {
		t.Error("Price with unknown algorithm returned no error")
	}
	if _, err := Price(o, Binomial, Config{Steps: 64, European: true, Algorithm: Tiled}); err == nil {
		t.Error("European lattice pricing with Tiled returned no error")
	}
	if _, err := Price(o, Binomial, Config{Steps: 0}); err == nil {
		t.Error("Price with zero steps returned no error")
	}
}

// --- satellite: ImpliedVol bracket regression --------------------------------

// A target below intrinsic value is unattainable at any volatility. The
// error must report the bracket the search actually used: under the default
// dividend yield the binomial lattice degenerates at the initial lo=1e-4, so
// the lower bound is silently raised before the range check — the old
// message presented the raised bracket's price as if it held for the full
// [1e-4, 5] range.
func TestImpliedVolTargetBelowIntrinsic(t *testing.T) {
	o := defaultCall()
	o.K = 100 // deep ITM call: intrinsic = 27.62
	const steps = 1000
	_, err := ImpliedVol(o, steps, 1.0) // far below intrinsic
	if err == nil {
		t.Fatal("ImpliedVol for a target below intrinsic returned no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "volatility in [") {
		t.Errorf("error %q does not state the volatility bracket actually used", msg)
	}
	// The default parameters have Y > R, so lo=1e-4 degenerates the tree
	// and the bracket must have been raised; the error must not imply the
	// range was computed at 1e-4.
	if strings.Contains(msg, "[0.0001,") {
		t.Errorf("error %q reports the unraised bracket, want the raised one", msg)
	}
}

func TestImpliedVolRecoversVol(t *testing.T) {
	o := defaultCall()
	const steps = 1000
	price, err := PriceAmerican(o, steps)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := ImpliedVol(o, steps, price)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv-o.V) > 1e-3 {
		t.Errorf("implied vol %v, want %v", iv, o.V)
	}
}

// TestChainRepricingMemoHits drives a Greeks+IV chain and asserts the
// repricing memo is actually exercised: the implied-vol solver's seed and
// first slope evaluations land on the same (option, steps) keys as the
// Greeks' base price and vega bumps, so every cell must produce memo hits.
func TestChainRepricingMemoHits(t *testing.T) {
	underlying := Option{Type: Call, S: 127.62, R: 0.00163, V: 0.21, Y: 0.0163}
	hits0, misses0 := RepricingMemoStats()
	quotes := Chain(underlying, []float64{120, 130}, []float64{1.0}, ChainOptions{Steps: 800})
	hits1, misses1 := RepricingMemoStats()
	for i, q := range quotes {
		if q.Err != nil {
			t.Fatalf("quote %d: %v", i, q.Err)
		}
		if q.ImpliedVol == 0 || q.Greeks.Vega == 0 {
			t.Fatalf("quote %d: Greeks+IV not computed (vega=%v, iv=%v)", i, q.Greeks.Vega, q.ImpliedVol)
		}
	}
	if hits1 <= hits0 {
		t.Errorf("repricing memo hits did not advance on a Greeks+IV chain: %d -> %d", hits0, hits1)
	}
	if misses1 <= misses0 {
		t.Errorf("repricing memo misses did not advance: %d -> %d", misses0, misses1)
	}
}

// The Newton fast path must also solve from a seed far from the answer (the
// quote's vol mark is a hint, not a requirement).
func TestImpliedVolFarSeed(t *testing.T) {
	o := defaultCall()
	const steps = 1000
	truth := o
	truth.V = 0.45
	target, err := PriceAmerican(truth, steps)
	if err != nil {
		t.Fatal(err)
	}
	// Solve with the mark still at 0.2: the solver must walk to 0.45.
	iv, err := ImpliedVol(o, steps, target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv-0.45) > 1e-3 {
		t.Errorf("implied vol %v from a far seed, want 0.45", iv)
	}
}

// TestPriceBatchSharesSpectrumCache runs a batch whose contracts differ only
// by strike, so every worker needs the same kernel spectra, concurrently.
// All pricings must succeed, the shared spectrum cache must be exercised
// (hits strictly increase), and results must equal a sequential repricing.
// Run with -race: this is the intended stress of the process-wide cache.
func TestPriceBatchSharesSpectrumCache(t *testing.T) {
	base := defaultCall()
	var reqs []Request
	for i := 0; i < 24; i++ {
		o := base
		o.K = 100 + float64(i%6) // repeated strikes: same lattices, shared spectra
		reqs = append(reqs, Request{Option: o, Model: Binomial, Config: Config{Steps: 3000}})
	}
	hits0, _, _, _ := linstencil.SpectrumCacheStats()
	bytes0 := fft.TransformedBytes()
	res := PriceBatch(reqs, BatchOptions{Workers: 8})
	hits1, _, _, _ := linstencil.SpectrumCacheStats()
	bytes1 := fft.TransformedBytes()

	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		want, err := Price(reqs[i].Option, Binomial, reqs[i].Config)
		if err != nil {
			t.Fatalf("request %d sequential: %v", i, err)
		}
		if r.Price != want {
			t.Errorf("request %d: batch price %v != sequential %v", i, r.Price, want)
		}
	}
	if hits1 <= hits0 {
		t.Errorf("spectrum cache hits did not advance: %d -> %d", hits0, hits1)
	}
	if bytes1 <= bytes0 {
		t.Error("FFT transform traffic counter did not advance")
	}
}

// TestPerfCountersSoATransforms pins the SoA transform counter's plumbing
// from a public Price call: a lattice solve large enough for the FFT path
// must advance fft.SoATransforms, and the counter never goes backwards.
func TestPerfCountersSoATransforms(t *testing.T) {
	o := defaultCall()
	before := fft.SoATransforms()
	if _, err := Price(o, Binomial, Config{Steps: 3000}); err != nil {
		t.Fatal(err)
	}
	after := fft.SoATransforms()
	if after <= before {
		t.Errorf("SoA transforms did not advance across an FFT-path solve: %d -> %d", before, after)
	}
	if again := fft.SoATransforms(); again < after {
		t.Errorf("SoA transforms went backwards: %d -> %d", after, again)
	}
}
