package amop

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/nlstencil/amop/internal/bsm"
	"github.com/nlstencil/amop/internal/fbstencil"
)

func paperOption(t OptionType) Option {
	return Option{Type: t, S: 127.62, K: 130, R: 0.00163, V: 0.2, Y: 0.0163, E: 1.0}
}

func randOption(rng *rand.Rand, t OptionType) Option {
	return Option{
		Type: t,
		S:    80 + 80*rng.Float64(),
		K:    80 + 80*rng.Float64(),
		R:    0.001 + 0.08*rng.Float64(),
		V:    0.1 + 0.4*rng.Float64(),
		Y:    0.005 + 0.08*rng.Float64(),
		E:    0.25 + 1.5*rng.Float64(),
	}
}

func TestPriceAllModelAlgorithmCombos(t *testing.T) {
	o := paperOption(Call)
	steps := 300

	// Binomial and trinomial: every algorithm must agree on calls.
	for _, m := range []Model{Binomial, Trinomial} {
		ref, err := Price(o, m, Config{Steps: steps, Algorithm: Naive})
		if err != nil {
			t.Fatalf("%v naive: %v", m, err)
		}
		for _, a := range []Algorithm{Fast, NaiveParallel, Tiled, Recursive} {
			v, err := Price(o, m, Config{Steps: steps, Algorithm: a})
			if err != nil {
				t.Fatalf("%v %v: %v", m, a, err)
			}
			if math.Abs(v-ref) > 1e-8*(1+ref) {
				t.Errorf("%v %v: %.12g vs naive %.12g", m, a, v, ref)
			}
		}
	}

	// BSM: put under fast / naive / naive-parallel.
	p := paperOption(Put)
	ref, err := Price(p, BlackScholesFD, Config{Steps: steps, Algorithm: Naive})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Algorithm{Fast, NaiveParallel} {
		v, err := Price(p, BlackScholesFD, Config{Steps: steps, Algorithm: a})
		if err != nil {
			t.Fatalf("bsm %v: %v", a, err)
		}
		if math.Abs(v-ref) > 1e-8*(1+ref) {
			t.Errorf("bsm %v: %.12g vs naive %.12g", a, v, ref)
		}
	}
}

func TestPriceErrors(t *testing.T) {
	call, put := paperOption(Call), paperOption(Put)
	cases := map[string]func() (float64, error){
		"zero steps": func() (float64, error) { return Price(call, Binomial, Config{}) },
		"call under bsm": func() (float64, error) {
			return Price(call, BlackScholesFD, Config{Steps: 100})
		},
		"tiled under bsm": func() (float64, error) {
			return Price(put, BlackScholesFD, Config{Steps: 100, Algorithm: Tiled})
		},
		"unknown model": func() (float64, error) {
			return Price(call, Model(99), Config{Steps: 100})
		},
		"unknown algorithm": func() (float64, error) {
			return Price(call, Binomial, Config{Steps: 100, Algorithm: Algorithm(99)})
		},
		"invalid vol": func() (float64, error) {
			o := call
			o.V = -1
			return Price(o, Binomial, Config{Steps: 100})
		},
	}
	for name, fn := range cases {
		if _, err := fn(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestBSMGridMatchesPrice pins the fast BSM put one layer down, as
// bsm.New and PriceFastStats build and solve it, to Price's BlackScholesFD
// path bit for bit, at deep-benchmark contracts up to T=65536.
func TestBSMGridMatchesPrice(t *testing.T) {
	for _, T := range []int{333, 4096, 1 << 16} {
		for _, k := range []float64{115, 127.62, 140} {
			o := Option{Type: Put, S: 127.62, K: k, R: 0.00163, V: 0.2, Y: 0.0163, E: 1}
			m, err := bsm.New(o.params(), T, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.PriceFastStats(nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Price(o, BlackScholesFD, Config{Steps: T})
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("K=%v T=%d: Price %v (%v), grid %v", k, T, got, err, want)
			}
		}
	}
}

// TestFastLatticePuts covers the extension beyond the paper: fast American
// puts directly on the binomial and trinomial lattices.
func TestFastLatticePuts(t *testing.T) {
	put := paperOption(Put)
	for _, m := range []Model{Binomial, Trinomial} {
		fast, err := Price(put, m, Config{Steps: 400, Algorithm: Fast})
		if err != nil {
			t.Fatalf("%v fast put: %v", m, err)
		}
		naive, err := Price(put, m, Config{Steps: 400, Algorithm: Naive})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast-naive) > 1e-9*(1+naive) {
			t.Errorf("%v: fast put %.12g vs naive %.12g", m, fast, naive)
		}
	}
}

// TestDeepOTMPricesNonNegative pins the price floor: far out of the money
// the exact discrete value is tiny but non-negative, and FFT roundoff used
// to publish it below zero under every model and style.
func TestDeepOTMPricesNonNegative(t *testing.T) {
	type combo struct {
		m   Model
		typ OptionType
	}
	combos := []combo{
		{Binomial, Call}, {Binomial, Put},
		{Trinomial, Call}, {Trinomial, Put},
		{BlackScholesFD, Put},
	}
	moneyness := [][2]float64{{400, 50}, {50, 400}, {500, 100}, {100, 500}}
	for _, c := range combos {
		for _, european := range []bool{false, true} {
			for _, sk := range moneyness {
				for _, steps := range []int{333, 2000, 4096, 8192} {
					o := Option{Type: c.typ, S: sk[0], K: sk[1], R: 0.03, V: 0.2, Y: 0.01, E: 1}
					p, err := Price(o, c.m, Config{Steps: steps, European: european})
					if err != nil {
						t.Fatalf("%v %v european=%v S/K=%v T=%d: %v", c.m, c.typ, european, sk, steps, err)
					}
					if !(p >= 0) {
						t.Errorf("%v %v european=%v S/K=%v T=%d: price %v < 0", c.m, c.typ, european, sk, steps, p)
					}
				}
			}
		}
	}
}

// TestExtremeVolCallPrices covers calls whose top leaves overflow float64.
// The fast solver only ever reads those cells as the closed-form exercise
// value, so its trinomial call stays finite and agrees with the binomial
// one (whose leaves stay finite) within lattice drift. Any algorithm whose
// sweep does carry the overflow down to the apex must say so with
// ErrNonFinite instead of publishing +Inf.
func TestExtremeVolCallPrices(t *testing.T) {
	o := Option{Type: Call, S: 100, K: 100, R: 0.05, Y: 0.1, E: 1, V: 4}
	cfg := Config{Steps: 16384}
	tri, err := Price(o, Trinomial, cfg)
	if err != nil {
		t.Fatalf("trinomial fast: %v", err)
	}
	bin, err := Price(o, Binomial, cfg)
	if err != nil {
		t.Fatalf("binomial fast: %v", err)
	}
	if math.Abs(tri-bin) > 1e-5*bin {
		t.Errorf("trinomial fast %.10g vs binomial fast %.10g", tri, bin)
	}

	// At V=16 the trinomial top leaf S*u^T = S*e^(16*sqrt(2*1000)) overflows
	// already at T=1000, small enough for the full-grid sweeps.
	o.V = 16
	cfgs := []Config{{European: true}, {European: true, Algorithm: Naive}}
	for _, alg := range []Algorithm{Fast, Naive, NaiveParallel, Tiled, Recursive} {
		cfgs = append(cfgs, Config{Algorithm: alg})
	}
	for _, cfg := range cfgs {
		cfg.Steps = 1000
		v, err := Price(o, Trinomial, cfg)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			t.Errorf("%v european=%v: price %v with a nil error", cfg.Algorithm, cfg.European, v)
		}
		if err != nil && !errors.Is(err, fbstencil.ErrNonFinite) {
			t.Errorf("%v european=%v: error %v does not wrap ErrNonFinite", cfg.Algorithm, cfg.European, err)
		}
	}
}

func TestPriceAmericanConvenience(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 6; trial++ {
		call := randOption(rng, Call)
		v, err := PriceAmerican(call, 500)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Price(call, Binomial, Config{Steps: 500, Algorithm: Naive})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-ref) > 1e-8*(1+ref) {
			t.Errorf("call trial %d: convenience %.12g vs naive %.12g", trial, v, ref)
		}

		put := randOption(rng, Put)
		vp, err := PriceAmerican(put, 500)
		if err != nil {
			t.Fatal(err)
		}
		refP, err := Price(put, BlackScholesFD, Config{Steps: 500, Algorithm: Naive})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(vp-refP) > 1e-8*(1+refP) {
			t.Errorf("put trial %d: convenience %.12g vs naive %.12g", trial, vp, refP)
		}
	}
}

func TestBlackScholesParity(t *testing.T) {
	// Put-call parity for the European closed form:
	// C - P = S e^{-YE} - K e^{-RE}.
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 20; trial++ {
		o := randOption(rng, Call)
		c, err := BlackScholes(o)
		if err != nil {
			t.Fatal(err)
		}
		o.Type = Put
		p, err := BlackScholes(o)
		if err != nil {
			t.Fatal(err)
		}
		want := o.S*math.Exp(-o.Y*o.E) - o.K*math.Exp(-o.R*o.E)
		if math.Abs(c-p-want) > 1e-9 {
			t.Errorf("trial %d: parity violated: C-P=%.12g want %.12g", trial, c-p, want)
		}
	}
}

func TestEuropeanLatticeApproachesClosedForm(t *testing.T) {
	o := paperOption(Call)
	bs, err := BlackScholes(o)
	if err != nil {
		t.Fatal(err)
	}
	v, err := PriceEuropean(o, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-bs) > 0.01 {
		t.Errorf("lattice European %.6f vs closed form %.6f", v, bs)
	}
}

func TestGreeksSanity(t *testing.T) {
	o := paperOption(Call)
	g, err := GreeksAmerican(o, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if g.Delta < 0 || g.Delta > 1 {
		t.Errorf("call delta %.4f outside [0,1]", g.Delta)
	}
	if g.Gamma < -1e-3 {
		t.Errorf("gamma %.6f negative", g.Gamma)
	}
	if g.Vega <= 0 {
		t.Errorf("vega %.4f not positive", g.Vega)
	}
	if g.Theta > 1e-6 {
		t.Errorf("theta %.6f positive for an ATM call", g.Theta)
	}

	p := paperOption(Put)
	gp, err := GreeksAmerican(p, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if gp.Delta > 0 || gp.Delta < -1 {
		t.Errorf("put delta %.4f outside [-1,0]", gp.Delta)
	}
	if gp.Rho >= 0.1 {
		t.Errorf("put rho %.4f too positive", gp.Rho)
	}
}

// TestGreeksMatchBlackScholesEuropean: European lattice Greeks approach the
// closed-form Black-Scholes Greeks.
func TestGreeksMatchBlackScholesEuropean(t *testing.T) {
	o := Option{Type: Call, S: 100, K: 100, R: 0.03, V: 0.25, Y: 0.01, E: 1}
	g, err := GreeksEuropean(o, 4000)
	if err != nil {
		t.Fatal(err)
	}
	sqrtE := math.Sqrt(o.E)
	d1 := (math.Log(o.S/o.K) + (o.R-o.Y+0.5*o.V*o.V)*o.E) / (o.V * sqrtE)
	nd1 := 0.5 * math.Erfc(-d1/math.Sqrt2)
	wantDelta := math.Exp(-o.Y*o.E) * nd1
	if math.Abs(g.Delta-wantDelta) > 0.02 {
		t.Errorf("delta %.4f vs closed form %.4f", g.Delta, wantDelta)
	}
	pdf := math.Exp(-d1*d1/2) / math.Sqrt(2*math.Pi)
	wantVega := o.S * math.Exp(-o.Y*o.E) * pdf * sqrtE
	if math.Abs(g.Vega-wantVega) > 0.05*wantVega+0.5 {
		t.Errorf("vega %.4f vs closed form %.4f", g.Vega, wantVega)
	}
}

func TestImpliedVolRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 5; trial++ {
		o := randOption(rng, Call)
		o.V = 0.15 + 0.3*rng.Float64()
		price, err := PriceAmerican(o, 600)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := ImpliedVol(o, 600, price)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(iv-o.V) > 1e-4 {
			t.Errorf("trial %d: implied vol %.6f, true %.6f", trial, iv, o.V)
		}
	}
}

func TestImpliedVolErrors(t *testing.T) {
	o := paperOption(Call)
	if _, err := ImpliedVol(o, 200, -1); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := ImpliedVol(o, 200, o.S*100); err == nil {
		t.Error("unattainable target accepted")
	}
}

func TestBermudan(t *testing.T) {
	o := paperOption(Call)
	steps := 512

	american, err := Price(o, Binomial, Config{Steps: steps, Algorithm: Naive})
	if err != nil {
		t.Fatal(err)
	}
	european, err := PriceEuropean(o, steps)
	if err != nil {
		t.Fatal(err)
	}

	// every=1 is exactly American.
	b1, err := PriceBermudan(o, steps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b1-american) > 1e-7*(1+american) {
		t.Errorf("Bermudan(1) %.12g != American %.12g", b1, american)
	}

	// Value decreases as exercise dates thin out, staying >= European.
	prev := b1
	for _, every := range []int{2, 4, 8, 32, 128} {
		b, err := PriceBermudan(o, steps, every)
		if err != nil {
			t.Fatal(err)
		}
		if b > prev+1e-9 {
			t.Errorf("Bermudan(%d) %.12g exceeds denser schedule %.12g", every, b, prev)
		}
		if b < european-1e-7 {
			t.Errorf("Bermudan(%d) %.12g below European %.12g", every, b, european)
		}
		prev = b
	}

	// Puts work too (no boundary structure needed).
	p := paperOption(Put)
	bp, err := PriceBermudan(p, steps, 1)
	if err != nil {
		t.Fatal(err)
	}
	amPut, err := Price(p, Binomial, Config{Steps: steps, Algorithm: Naive})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bp-amPut) > 1e-7*(1+amPut) {
		t.Errorf("Bermudan put(1) %.12g != American put %.12g", bp, amPut)
	}

	if _, err := PriceBermudan(o, steps, 0); err == nil {
		t.Error("every=0 accepted")
	}
}

func TestStringers(t *testing.T) {
	for val, want := range map[string]string{
		Call.String():           "call",
		Put.String():            "put",
		Binomial.String():       "bopm",
		Trinomial.String():      "topm",
		BlackScholesFD.String(): "bsm",
		Fast.String():           "fast",
		Tiled.String():          "tiled",
	} {
		if val != want {
			t.Errorf("stringer: got %q want %q", val, want)
		}
	}
	if !strings.Contains(Model(42).String(), "42") {
		t.Error("unknown model stringer")
	}
}
