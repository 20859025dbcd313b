package topm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/nlstencil/amop/internal/bopm"
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
	if _, err := New(option.Default(), 100); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	for name, c := range map[string]struct {
		prm   option.Params
		steps int
	}{
		"zero steps":      {option.Default(), 0},
		"too many steps":  {option.Default(), MaxSteps + 1},
		"bad vol":         {option.Params{S: 100, K: 100, R: 0.01, V: -0.1, Y: 0, E: 1}, 100},
		"degenerate tree": {option.Params{S: 100, K: 100, R: 5, V: 0.01, Y: 0, E: 1}, 1},
		// u and the drift factor both overflow: the probabilities are NaN.
		"overflowed tree": {option.Params{S: 100, K: 100, R: 2000, V: 1100, Y: 0, E: 1}, 1},
	} {
		if _, err := New(c.prm, c.steps); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestProbabilitiesSumToOne: the weights are discounted probabilities — they
// sum to Disc = e^(-R*dt) — under which the price is a martingale:
// sum_k W[k]*u^(k-1) = e^(-Y*dt).
func TestProbabilitiesSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		m, err := New(randParams(rng), 10+rng.Intn(500))
		if err != nil {
			t.Fatal(err)
		}
		w := m.W
		if s := (w[0] + w[1] + w[2]) / m.Disc; math.Abs(s-1) > 1e-12 {
			t.Errorf("probabilities sum to %v", s)
		}
		gro := w[0]/m.U + w[1] + w[2]*m.U
		want := math.Exp(-m.Prm.Y * m.Dt)
		if relDiff(gro, want) > 1e-12 {
			t.Errorf("martingale violated: %v vs %v", gro, want)
		}
	}
}

func TestFastMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 25; trial++ {
		m, err := New(randParams(rng), 16+rng.Intn(400))
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

func TestAllAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 8; trial++ {
		m, err := New(randParams(rng), 30+rng.Intn(300))
		if err != nil {
			t.Fatal(err)
		}
		ref := m.PriceNaive(option.Call)
		for name, v := range map[string]float64{
			"naive-parallel": m.PriceNaiveParallel(option.Call),
			"tiled":          m.PriceTiled(option.Call, 0, 0),
			"tiled-odd":      m.PriceTiled(option.Call, 41, 7),
			"recursive":      m.PriceRecursive(option.Call),
		} {
			if d := relDiff(v, ref); d > 1e-9 {
				t.Errorf("trial %d (T=%d) %s: %.12g vs naive %.12g", trial, m.T, name, v, ref)
			}
		}
	}
}

func TestEuropeanFastMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 10; trial++ {
		m, err := New(randParams(rng), 16+rng.Intn(500))
		if err != nil {
			t.Fatal(err)
		}
		// The FFT's absolute error scales with the largest payoff in the
		// row (the deep-ITM leaves), unlike the cancellation-free naive
		// sum; tolerate eps * maxLeaf.
		maxLeaf := m.Asset(0, 2*m.T)
		tol := 1e-12*maxLeaf + 1e-9
		for _, kind := range []option.Kind{option.Call, option.Put} {
			fast := m.PriceEuropean(kind)
			naive := m.PriceEuropeanNaive(kind)
			if d := math.Abs(fast - naive); d > tol {
				t.Errorf("trial %d %v: fft %.12g naive %.12g (tol %g)", trial, kind, fast, naive, tol)
			}
		}
	}
}

// TestEuropeanConvergesToBlackScholes: the trinomial European price
// converges to the closed form; the paper notes TOPM needs about half the
// steps of BOPM for the same accuracy.
func TestEuropeanConvergesToBlackScholes(t *testing.T) {
	p := option.Params{S: 100, K: 110, R: 0.03, V: 0.25, Y: 0.01, E: 1}
	for _, kind := range []option.Kind{option.Call, option.Put} {
		bs := option.BlackScholes(p, kind)
		m, err := New(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(m.PriceEuropean(kind) - bs); e > 0.01 {
			t.Errorf("%v: trinomial European at T=4096 off closed form by %g", kind, e)
		}
	}
}

// TestAgreesWithBinomial: binomial and trinomial American call prices
// converge to the same limit.
func TestAgreesWithBinomial(t *testing.T) {
	p := option.Params{S: 127.62, K: 130, R: 0.02, V: 0.2, Y: 0.03, E: 1}
	tm, err := New(p, 2000)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := bopm.New(p, 4000)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := tm.PriceFast()
	if err != nil {
		t.Fatal(err)
	}
	bv, err := bm.PriceFast()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tv-bv) > 0.02 {
		t.Errorf("trinomial %.6f and binomial %.6f disagree beyond discretization error", tv, bv)
	}
}

func TestAmericanDominatesEuropean(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 10; trial++ {
		m, err := New(randParams(rng), 200)
		if err != nil {
			t.Fatal(err)
		}
		am, err := m.PriceFast()
		if err != nil {
			t.Fatal(err)
		}
		if eu := m.PriceEuropean(option.Call); am < eu-1e-9 {
			t.Errorf("trial %d: American %.12g < European %.12g", trial, am, eu)
		}
	}
}

func TestBaseCaseAblation(t *testing.T) {
	m, err := New(option.Default(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.PriceFast()
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []int{1, 4, 16, 64} {
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

func TestPutBoundaryStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	for trial := 0; trial < 20; trial++ {
		p := randParams(rng)
		if trial%2 == 0 {
			p.Y = 0
		}
		m, err := New(p, 16+rng.Intn(300))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.ValidatePutStructure(); err != nil {
			t.Errorf("trial %d (T=%d, %+v): %v", trial, m.T, m.Prm, err)
		}
	}
}

func TestFastPutMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	for trial := 0; trial < 25; trial++ {
		p := randParams(rng)
		if trial%2 == 0 {
			p.Y = 0
		}
		m, err := New(p, 16+rng.Intn(500))
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
	for _, T := range []int{100, 1000, 4000} {
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
