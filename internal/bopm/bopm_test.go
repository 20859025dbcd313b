package bopm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/nlstencil/amop/internal/option"
)

func randParams(rng *rand.Rand) option.Params {
	return option.Params{
		S: 80 + 80*rng.Float64(),
		K: 80 + 80*rng.Float64(),
		R: 0.001 + 0.08*rng.Float64(),
		V: 0.1 + 0.4*rng.Float64(),
		Y: 0.005 + 0.08*rng.Float64(),
		E: 0.25 + 1.5*rng.Float64(),
	}
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}

func TestNewValidation(t *testing.T) {
	good := option.Default()
	if _, err := New(good, 100); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	cases := []struct {
		name  string
		prm   option.Params
		steps int
	}{
		{"zero steps", good, 0},
		{"negative steps", good, -4},
		{"too many steps", good, MaxSteps + 1},
		{"bad spot", option.Params{S: -1, K: 100, R: 0.01, V: 0.2, Y: 0, E: 1}, 100},
		{"bad strike", option.Params{S: 100, K: 0, R: 0.01, V: 0.2, Y: 0, E: 1}, 100},
		{"bad vol", option.Params{S: 100, K: 100, R: 0.01, V: 0, Y: 0, E: 1}, 100},
		{"bad expiry", option.Params{S: 100, K: 100, R: 0.01, V: 0.2, Y: 0, E: 0}, 100},
		{"nan rate", option.Params{S: 100, K: 100, R: math.NaN(), V: 0.2, Y: 0, E: 1}, 100},
		// One huge drift step overwhelms the volatility: q > 1.
		{"degenerate tree", option.Params{S: 100, K: 100, R: 3, V: 0.01, Y: 0, E: 1}, 1},
		// u and the drift factor both overflow: q = Inf/Inf is NaN.
		{"overflowed tree", option.Params{S: 8, K: 245, R: 91, V: 1082, Y: 15.6, E: 42}, 3},
	}
	for _, c := range cases {
		if _, err := New(c.prm, c.steps); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestFastMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		m, err := New(randParams(rng), 16+rng.Intn(600))
		if err != nil {
			t.Fatal(err)
		}
		fast, err := m.PriceFast()
		if err != nil {
			t.Fatal(err)
		}
		naive := m.PriceNaive(option.Call)
		if d := relDiff(fast, naive); d > 1e-10 {
			t.Errorf("trial %d (T=%d): fast %.12g naive %.12g rel %g", trial, m.T, fast, naive, d)
		}
	}
}

func TestFastMatchesNaivePaperParams(t *testing.T) {
	for _, T := range []int{100, 1000, 5000} {
		m, err := New(option.Default(), T)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := m.PriceFast()
		if err != nil {
			t.Fatal(err)
		}
		naive := m.PriceNaive(option.Call)
		if d := relDiff(fast, naive); d > 1e-10 {
			t.Errorf("T=%d: fast %.12g naive %.12g rel %g", T, fast, naive, d)
		}
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 12; trial++ {
		m, err := New(randParams(rng), 30+rng.Intn(500))
		if err != nil {
			t.Fatal(err)
		}
		ref := m.PriceNaive(option.Call)
		algs := map[string]float64{
			"naive-parallel": m.PriceNaiveParallel(option.Call),
			"tiled-default":  m.PriceTiled(option.Call, 0, 0),
			"tiled-odd":      m.PriceTiled(option.Call, 37, 5),
			"tiled-tiny":     m.PriceTiled(option.Call, 8, 2),
			"recursive":      m.PriceRecursive(option.Call),
		}
		for name, v := range algs {
			if d := relDiff(v, ref); d > 1e-9 {
				t.Errorf("trial %d (T=%d) %s: %.12g vs naive %.12g rel %g", trial, m.T, name, v, ref, d)
			}
		}
	}
}

func TestAllAlgorithmsAgreePut(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		m, err := New(randParams(rng), 30+rng.Intn(400))
		if err != nil {
			t.Fatal(err)
		}
		ref := m.PriceNaive(option.Put)
		for name, v := range map[string]float64{
			"naive-parallel": m.PriceNaiveParallel(option.Put),
			"tiled":          m.PriceTiled(option.Put, 0, 0),
			"recursive":      m.PriceRecursive(option.Put),
		} {
			if d := relDiff(v, ref); d > 1e-9 {
				t.Errorf("trial %d %s: %.12g vs %.12g", trial, name, v, ref)
			}
		}
	}
}

func TestEuropeanFastMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 15; trial++ {
		m, err := New(randParams(rng), 16+rng.Intn(800))
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []option.Kind{option.Call, option.Put} {
			fast := m.PriceEuropean(kind)
			naive := m.PriceEuropeanNaive(kind)
			if d := relDiff(fast, naive); d > 1e-9 {
				t.Errorf("trial %d %v: fft %.12g naive %.12g", trial, kind, fast, naive)
			}
		}
	}
}

// TestEuropeanConvergesToBlackScholes: the binomial European price converges
// to the closed form as T grows.
func TestEuropeanConvergesToBlackScholes(t *testing.T) {
	p := option.Params{S: 100, K: 110, R: 0.03, V: 0.25, Y: 0.01, E: 1}
	for _, kind := range []option.Kind{option.Call, option.Put} {
		bs := option.BlackScholes(p, kind)
		var prevErr float64 = math.Inf(1)
		for _, T := range []int{64, 512, 4096} {
			m, err := New(p, T)
			if err != nil {
				t.Fatal(err)
			}
			e := math.Abs(m.PriceEuropean(kind) - bs)
			if e > prevErr*1.2 { // allow mild oscillation
				t.Errorf("%v: error grew from %g to %g at T=%d", kind, prevErr, e, T)
			}
			prevErr = e
		}
		if prevErr > 0.01 {
			t.Errorf("%v: binomial European at T=4096 off closed form by %g", kind, prevErr)
		}
	}
}

// TestAmericanDominatesEuropean: early exercise can only add value.
func TestAmericanDominatesEuropean(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 15; trial++ {
		m, err := New(randParams(rng), 200)
		if err != nil {
			t.Fatal(err)
		}
		am, err := m.PriceFast()
		if err != nil {
			t.Fatal(err)
		}
		eu := m.PriceEuropean(option.Call)
		if am < eu-1e-9 {
			t.Errorf("trial %d: American call %.12g < European %.12g", trial, am, eu)
		}
		amPut := m.PriceNaive(option.Put)
		euPut := m.PriceEuropean(option.Put)
		if amPut < euPut-1e-9 {
			t.Errorf("trial %d: American put %.12g < European %.12g", trial, amPut, euPut)
		}
	}
}

// TestZeroDividendCallEqualsEuropean: with Y=0 early exercise of a call is
// never optimal, so American == European.
func TestZeroDividendCallEqualsEuropean(t *testing.T) {
	p := option.Params{S: 100, K: 95, R: 0.04, V: 0.3, Y: 0, E: 1}
	m, err := New(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	am, err := m.PriceFast()
	if err != nil {
		t.Fatal(err)
	}
	eu := m.PriceEuropean(option.Call)
	// The two sides take different FFT paths (chained trapezoid evolutions
	// vs one straight evolution), so agreement is to rounding accumulation.
	if d := relDiff(am, eu); d > 1e-8 {
		t.Errorf("Y=0: American call %.12g != European %.12g", am, eu)
	}
}

// TestPriceAboveIntrinsic: an American option is worth at least its
// immediate exercise value.
func TestPriceAboveIntrinsic(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 15; trial++ {
		p := randParams(rng)
		m, err := New(p, 300)
		if err != nil {
			t.Fatal(err)
		}
		v, err := m.PriceFast()
		if err != nil {
			t.Fatal(err)
		}
		if intrinsic := math.Max(p.S-p.K, 0); v < intrinsic-1e-9 {
			t.Errorf("trial %d: call %.12g below intrinsic %.12g", trial, v, intrinsic)
		}
	}
}

// TestBaseCaseAblation: the fast price must be invariant to the recursion
// cutoff (the paper tunes it to 8 for speed only).
func TestBaseCaseAblation(t *testing.T) {
	m, err := New(option.Default(), 2048)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.PriceFast()
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []int{1, 4, 16, 100} {
		m.SetBaseCase(base)
		v, err := m.PriceFast()
		if err != nil {
			t.Fatal(err)
		}
		if d := relDiff(v, ref); d > 1e-11 {
			t.Errorf("base %d: %.14g vs %.14g", base, v, ref)
		}
	}
}

func TestMonotoneInSpot(t *testing.T) {
	base := option.Default()
	prev := -math.MaxFloat64
	for s := 80.0; s <= 180; s += 10 {
		p := base
		p.S = s
		m, err := New(p, 500)
		if err != nil {
			t.Fatal(err)
		}
		v, err := m.PriceFast()
		if err != nil {
			t.Fatal(err)
		}
		if v < prev-1e-9 {
			t.Errorf("call price not increasing in spot at S=%v: %g < %g", s, v, prev)
		}
		prev = v
	}
}

func TestPutBoundaryStructure(t *testing.T) {
	// The green-left structure that Corollary 2.7 gives the put (and so the
	// fast call, the put of the swapped contract) holds across broad
	// parameters.
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 25; trial++ {
		m, err := New(randParams(rng), 16+rng.Intn(400))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.ValidatePutStructure(); err != nil {
			t.Errorf("trial %d (T=%d, %+v): %v", trial, m.T, m.Prm, err)
		}
	}
	// Zero-dividend regime too (the common case for equity puts).
	for trial := 0; trial < 10; trial++ {
		p := randParams(rng)
		p.Y = 0
		m, err := New(p, 16+rng.Intn(400))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.ValidatePutStructure(); err != nil {
			t.Errorf("Y=0 trial %d (T=%d): %v", trial, m.T, err)
		}
	}
}

func TestFastPutMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 30; trial++ {
		p := randParams(rng)
		if trial%2 == 0 {
			p.Y = 0
		}
		m, err := New(p, 16+rng.Intn(600))
		if err != nil {
			t.Fatal(err)
		}
		fast, err := m.PriceFastPut()
		if err != nil {
			t.Fatal(err)
		}
		naive := m.PriceNaive(option.Put)
		if d := relDiff(fast, naive); d > 1e-10 {
			t.Errorf("trial %d (T=%d, %+v): fast %.12g naive %.12g rel %g", trial, m.T, p, fast, naive, d)
		}
	}
}

func TestFastPutPaperParams(t *testing.T) {
	for _, T := range []int{100, 1000, 5000} {
		m, err := New(option.Default(), T)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := m.PriceFastPut()
		if err != nil {
			t.Fatal(err)
		}
		naive := m.PriceNaive(option.Put)
		if d := relDiff(fast, naive); d > 1e-10 {
			t.Errorf("T=%d: fast %.12g naive %.12g rel %g", T, fast, naive, d)
		}
	}
}

func TestFastPutDeepCases(t *testing.T) {
	cases := []option.Params{
		{S: 400, K: 50, R: 0.03, V: 0.2, Y: 0, E: 1},      // deep OTM put: all red
		{S: 10, K: 300, R: 0.03, V: 0.2, Y: 0, E: 1},      // deep ITM put: exercise now
		{S: 100, K: 100, R: 0.0001, V: 0.3, Y: 0.1, E: 2}, // high dividend, tiny rate
	}
	for i, p := range cases {
		m, err := New(p, 600)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := m.PriceFastPut()
		if err != nil {
			t.Fatal(err)
		}
		naive := m.PriceNaive(option.Put)
		if d := relDiff(fast, naive); d > 1e-10 {
			t.Errorf("case %d: fast %.12g naive %.12g", i, fast, naive)
		}
	}
}
