package amop

import (
	"errors"
	"math"
	"testing"

	"github.com/nlstencil/amop/internal/analytic"
)

// tierBook is an in-envelope vanilla American book: a strikes x expiries
// chain of puts and calls on one underlying, every contract eligible for the
// analytic tier.
func tierBook(steps int) []Request {
	var reqs []Request
	for _, kind := range []OptionType{Put, Call} {
		for _, k := range []float64{85, 95, 100, 105, 115} {
			for _, e := range []float64{0.25, 0.5, 1, 2} {
				reqs = append(reqs, Request{
					Option: Option{Type: kind, S: 100, K: k, R: 0.045, V: 0.22, Y: 0.015, E: e},
					Model:  AutoModel,
					Config: Config{Steps: steps},
				})
			}
		}
	}
	return reqs
}

// latticeRef is a Richardson-extrapolated fast-lattice reference under the
// natural model, accurate enough to judge the analytic tier at 1e-5.
func latticeRef(t *testing.T, o Option) float64 {
	t.Helper()
	price := func(n int) float64 {
		v, err := PriceAmerican(o, n)
		if err != nil {
			t.Fatalf("PriceAmerican(%+v, %d): %v", o, n, err)
		}
		return v
	}
	return 2*price(16000) - price(8000)
}

// TestAlgorithmAnalytic pins the forced fast path: Config.Algorithm =
// Analytic prices without a step count and agrees with the extrapolated
// lattice for both kinds; European requests get the closed form exactly.
func TestAlgorithmAnalytic(t *testing.T) {
	for _, kind := range []OptionType{Put, Call} {
		o := Option{Type: kind, S: 127.62, K: 130, R: 0.05, V: 0.2, Y: 0.0163, E: 1}
		got, err := Price(o, AutoModel, Config{Algorithm: Analytic})
		if err != nil {
			t.Fatalf("forced analytic %v: %v", kind, err)
		}
		ref := latticeRef(t, o)
		if d := math.Abs(got - ref); d > 1e-5*(1+math.Abs(ref)) {
			t.Errorf("%v: analytic %.8f vs extrapolated lattice %.8f (diff %.3g)", kind, got, ref, d)
		}

		eur, err := Price(o, AutoModel, Config{Algorithm: Analytic, European: true})
		if err != nil {
			t.Fatalf("forced analytic European %v: %v", kind, err)
		}
		bs, err := BlackScholes(o)
		if err != nil {
			t.Fatal(err)
		}
		if eur != bs {
			t.Errorf("%v European: analytic %.12g != closed form %.12g", kind, eur, bs)
		}
	}
}

// TestAnalyticEnvelopeRefusal: a forced-analytic request outside the
// validity envelope fails with the envelope error instead of degrading.
func TestAnalyticEnvelopeRefusal(t *testing.T) {
	o := Option{Type: Put, S: 100, K: 100, R: 0.4, V: 0.05, Y: 0, E: 1} // stiffness 320
	if _, err := Price(o, AutoModel, Config{Algorithm: Analytic}); !errors.Is(err, analytic.ErrEnvelope) {
		t.Fatalf("out-of-envelope forced analytic: got %v, want ErrEnvelope", err)
	}
}

// TestTierAutoPromotesAndFallsBack: under TierAuto an eligible contract is
// served analytically (bit-identical to the forced path) and counted in
// AnalyticServes; an out-of-envelope contract silently falls back to the
// lattice (bit-identical to the TierLattice batch) and counts a fallback.
func TestTierAutoPromotesAndFallsBack(t *testing.T) {
	in := Request{
		Option: Option{Type: Put, S: 100, K: 105, R: 0.05, V: 0.25, Y: 0.01, E: 1.5},
		Model:  AutoModel,
		Config: Config{Steps: 512},
	}
	out := in
	out.Option.V = 0.05
	out.Option.R = 0.4 // stiffness 320: outside the envelope

	before := ReadPerfCounters()
	res := PriceBatch([]Request{in, out}, BatchOptions{Tier: TierAuto})
	after := ReadPerfCounters()
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}

	forced, err := Price(in.Option, AutoModel, Config{Algorithm: Analytic})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Price != forced {
		t.Errorf("promoted price %.17g != forced analytic %.17g", res[0].Price, forced)
	}
	lattice := PriceBatch([]Request{out}, BatchOptions{})[0]
	if lattice.Err != nil {
		t.Fatal(lattice.Err)
	}
	if res[1].Price != lattice.Price {
		t.Errorf("fallback price %.17g != lattice price %.17g", res[1].Price, lattice.Price)
	}

	if after.AnalyticServes <= before.AnalyticServes {
		t.Error("TierAuto promotion did not count in AnalyticServes")
	}
	if after.TierFallbacks <= before.TierFallbacks {
		t.Error("TierAuto fallback did not count in TierFallbacks")
	}
}

// TestTierAnalyticForced: TierAnalytic serves eligible contracts and
// surfaces the envelope error for ineligible ones instead of falling back.
func TestTierAnalyticForced(t *testing.T) {
	in := Request{
		Option: Option{Type: Call, S: 110, K: 100, R: 0.03, V: 0.3, Y: 0.02, E: 0.75},
		Model:  AutoModel,
		Config: Config{Steps: 512},
	}
	out := in
	out.Option.E = 40 // expiry beyond the envelope
	res := PriceBatch([]Request{in, out}, BatchOptions{Tier: TierAnalytic})
	if res[0].Err != nil {
		t.Fatalf("eligible contract under TierAnalytic: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, analytic.ErrEnvelope) {
		t.Fatalf("ineligible contract under TierAnalytic: got %v, want ErrEnvelope", res[1].Err)
	}
}

// TestTierAutoLeavesForcedAlgorithmsAlone: a request that forces a lattice
// algorithm (here Naive) is benchmarking that code path; TierAuto must not
// promote it.
func TestTierAutoLeavesForcedAlgorithmsAlone(t *testing.T) {
	req := Request{
		Option: Option{Type: Put, S: 100, K: 100, R: 0.05, V: 0.2, Y: 0.01, E: 1},
		Model:  AutoModel,
		Config: Config{Steps: 256, Algorithm: Naive},
	}
	auto := PriceBatch([]Request{req}, BatchOptions{Tier: TierAuto})[0]
	plain := PriceBatch([]Request{req}, BatchOptions{})[0]
	if auto.Err != nil || plain.Err != nil {
		t.Fatalf("errs: %v, %v", auto.Err, plain.Err)
	}
	if auto.Price != plain.Price {
		t.Errorf("TierAuto changed a forced-Naive request: %.17g != %.17g", auto.Price, plain.Price)
	}
}

// TestChainAnalyticTier: a chain under TierAuto prices, differentiates and
// round-trips implied vols entirely on the analytic fast path — every cell
// must agree with the forced analytic price, carry finite Greeks, and
// recover its vol mark from the implied-vol round trip.
func TestChainAnalyticTier(t *testing.T) {
	u := Option{Type: Put, S: 100, R: 0.04, V: 0.3, Y: 0.012}
	strikes := []float64{90, 100, 110}
	expiries := []float64{0.5, 1.5}
	quotes := Chain(u, strikes, expiries, ChainOptions{Tier: TierAuto, Steps: 512})
	for _, q := range quotes {
		if q.Err != nil {
			t.Fatalf("cell K=%g E=%g: %v", q.Strike, q.Expiry, q.Err)
		}
		o := u
		o.K, o.E = q.Strike, q.Expiry
		forced, err := Price(o, AutoModel, Config{Algorithm: Analytic})
		if err != nil {
			t.Fatal(err)
		}
		if q.Price != forced {
			t.Errorf("cell K=%g E=%g: chain price %.17g != forced analytic %.17g", q.Strike, q.Expiry, q.Price, forced)
		}
		for name, v := range map[string]float64{
			"delta": q.Greeks.Delta, "gamma": q.Greeks.Gamma, "theta": q.Greeks.Theta,
			"vega": q.Greeks.Vega, "rho": q.Greeks.Rho,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("cell K=%g E=%g: %s = %v", q.Strike, q.Expiry, name, v)
			}
		}
		if math.Abs(q.ImpliedVol-u.V) > 1e-6 {
			t.Errorf("cell K=%g E=%g: implied vol %.8f does not recover mark %.8f", q.Strike, q.Expiry, q.ImpliedVol, u.V)
		}
	}
}

// TestGreeksAnalytic: the boundary-solve Greeks agree with bump-and-reprice
// finite differences of the forced analytic price.
func TestGreeksAnalytic(t *testing.T) {
	for _, kind := range []OptionType{Put, Call} {
		o := Option{Type: kind, S: 100, K: 100, R: 0.05, V: 0.2, Y: 0.02, E: 1}
		v, g, err := GreeksAnalytic(o)
		if err != nil {
			t.Fatalf("GreeksAnalytic(%v): %v", kind, err)
		}
		fd, err := greeks(o, func(oo Option) (float64, error) {
			return Price(oo, AutoModel, Config{Algorithm: Analytic})
		})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Price(o, AutoModel, Config{Algorithm: Analytic})
		if err != nil {
			t.Fatal(err)
		}
		if v != direct {
			t.Errorf("%v: GreeksAnalytic value %.17g != Price %.17g", kind, v, direct)
		}
		check := func(name string, got, want, tol float64) {
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Errorf("%v %s: analytic %.8g vs bump-and-reprice %.8g", kind, name, got, want)
			}
		}
		// The root bumps are coarse (1% spot, 1 vol point), so the
		// comparison tolerances reflect finite-difference truncation, not
		// the Greeks' own accuracy (internal/analytic pins those at 1e-4).
		check("delta", g.Delta, fd.Delta, 1e-3)
		check("gamma", g.Gamma, fd.Gamma, 1e-2)
		check("vega", g.Vega, fd.Vega, 1e-2)
		check("rho", g.Rho, fd.Rho, 1e-3)
		check("theta", g.Theta, fd.Theta, 1e-3)
	}
}

// TestServerAnalyticTier: a live server under TierAuto serves its whole book
// from the analytic tier — forced-analytic book entries need no step count —
// and the tier counters observe the flight.
func TestServerAnalyticTier(t *testing.T) {
	book := []BookEntry{
		{Symbol: "A", Option: Option{Type: Put, S: 100, K: 100, R: 0.05, V: 0.2, Y: 0.01, E: 1}, Model: AutoModel, Config: Config{Steps: 512}},
		{Symbol: "A", Option: Option{Type: Call, S: 100, K: 110, R: 0.05, V: 0.2, Y: 0.01, E: 0.5}, Model: AutoModel, Config: Config{Algorithm: Analytic}},
	}
	before := ReadPerfCounters()
	s, err := NewServer(book, ServerOptions{Tier: TierAuto})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < s.Contracts(); id++ {
		q, err := s.Quote(id)
		if err != nil {
			t.Fatalf("quote %d: %v", id, err)
		}
		if math.IsNaN(q.Price) || q.Price < 0 {
			t.Fatalf("quote %d: price %v", id, q.Price)
		}
	}
	if after := ReadPerfCounters(); after.AnalyticServes <= before.AnalyticServes {
		t.Error("server flight under TierAuto recorded no analytic serves")
	}
}

// TestXvalCheck: the cross-validation primitive produces a tight pair for an
// in-envelope contract and counts in XvalChecks.
func TestXvalCheck(t *testing.T) {
	before := ReadPerfCounters()
	pair, err := XvalCheck(Option{Type: Put, S: 100, K: 100, R: 0.05, V: 0.2, Y: 0.01, E: 1}, 8000)
	if err != nil {
		t.Fatal(err)
	}
	// At 8000 steps the lattice still carries ~1e-5 discretization error;
	// the pair just has to be sane here, the tight gate lives in amop-xval.
	if pair.RelErr > 1e-4 {
		t.Errorf("analytic %.8f vs lattice %.8f: rel %.3g implausibly large", pair.Analytic, pair.Lattice, pair.RelErr)
	}
	if after := ReadPerfCounters(); after.XvalChecks <= before.XvalChecks {
		t.Error("XvalCheck did not count")
	}
}

// TestBatchAnalyticTierConcurrent races a whole TierAuto book through the
// batch engine's pool (all workers share the analytic tier's process-wide
// boundary and Chebyshev caches) and checks the result is bit-identical to a
// serial repricing. Run under -race this is the tier's cache-coherence gate
// at the batch level.
func TestBatchAnalyticTierConcurrent(t *testing.T) {
	reqs := tierBook(512)
	concurrent := PriceBatch(reqs, BatchOptions{Tier: TierAuto, Workers: 16})
	serial := PriceBatch(reqs, BatchOptions{Tier: TierAuto, Workers: 1})
	for i := range reqs {
		if concurrent[i].Err != nil || serial[i].Err != nil {
			t.Fatalf("request %d: %v / %v", i, concurrent[i].Err, serial[i].Err)
		}
		if concurrent[i].Price != serial[i].Price {
			t.Errorf("request %d: concurrent %.17g != serial %.17g", i, concurrent[i].Price, serial[i].Price)
		}
	}
}
