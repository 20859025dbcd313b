package bsm

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
		Y: 0, // the paper's BSM formulation; Y>0 covered separately
		E: 0.25 + 1.5*rng.Float64(),
	}
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}

func TestNewValidation(t *testing.T) {
	if _, err := New(option.Default(), 100, 0); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	for name, c := range map[string]struct {
		prm    option.Params
		steps  int
		lambda float64
	}{
		"zero steps":     {option.Default(), 0, 0},
		"too many steps": {option.Default(), MaxSteps + 1, 0},
		"bad lambda":     {option.Default(), 100, 0.9},
		"neg lambda":     {option.Default(), 100, -0.1},
		"bad vol":        {option.Params{S: 100, K: 100, R: 0.01, V: 0, Y: 0, E: 1}, 100, 0},
		// Huge omega*dtau makes c negative at few steps.
		"unstable": {option.Params{S: 100, K: 100, R: 8, V: 0.1, Y: 0, E: 1}, 2, 0.5},
	} {
		if _, err := New(c.prm, c.steps, c.lambda); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestWeightsSubStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		m, err := New(randParams(rng), 16+rng.Intn(400), 0)
		if err != nil {
			t.Fatal(err)
		}
		b, c, a := m.W[0], m.W[1], m.W[2]
		if a < 0 || b < 0 || c < 0 {
			t.Fatalf("negative weight: a=%v b=%v c=%v", a, b, c)
		}
		if s := a + b + c; s > 1+1e-12 {
			t.Errorf("weights sum %v > 1", s)
		}
	}
}

func TestFastMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		m, err := New(randParams(rng), 16+rng.Intn(400), 0)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := m.PriceFast()
		if err != nil {
			t.Fatal(err)
		}
		naive := m.PriceNaive(option.Put)
		if d := relDiff(fast, naive); d > 1e-10 {
			t.Errorf("trial %d (T=%d): fast %.12g naive %.12g rel %g", trial, m.T, fast, naive, d)
		}
	}
}

func TestFastMatchesNaiveWithDividends(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		p := randParams(rng)
		p.Y = 0.01 + 0.05*rng.Float64()
		m, err := New(p, 16+rng.Intn(300), 0)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := m.PriceFast()
		if err != nil {
			t.Fatal(err)
		}
		naive := m.PriceNaive(option.Put)
		if d := relDiff(fast, naive); d > 1e-10 {
			t.Errorf("trial %d: fast %.12g naive %.12g", trial, fast, naive)
		}
	}
}

// TestFastMatchesNaivePaperParams pins the paper's default parameters, which
// have Y > R — the regime where the exercise boundary drops ~ln(R/Y)/ds
// cells at the first step off the payoff row (the case that motivated the
// solver's exact first step).
func TestFastMatchesNaivePaperParams(t *testing.T) {
	for _, T := range []int{64, 256, 1024, 4096} {
		m, err := New(option.Default(), T, 0)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := m.PriceFast()
		if err != nil {
			t.Fatal(err)
		}
		naive := m.PriceNaive(option.Put)
		if d := relDiff(fast, naive); d > 1e-10 {
			t.Errorf("T=%d: fast %.12g naive %.12g rel %g", T, fast, naive, d)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 8; trial++ {
		m, err := New(randParams(rng), 30+rng.Intn(400), 0)
		if err != nil {
			t.Fatal(err)
		}
		a, b := m.PriceNaive(option.Put), m.PriceNaiveParallel(option.Put)
		if a != b {
			t.Errorf("trial %d: serial %.17g parallel %.17g", trial, a, b)
		}
	}
}

// centered is the loop of Equation 5 as the paper writes it, on the
// unshifted grid and in price units: cell (d, j), j in [d, 2T-d], is the
// max of its centered three-point sum and obstacle(d, j). It returns the
// apex (T, T).
func centered(m *Model, obstacle func(d, j int) float64) float64 {
	T, w := m.T, m.W
	row, next := make([]float64, 2*T+1), make([]float64, 2*T+1)
	for j := range row {
		row[j] = math.Max(m.Exercise(option.Put, 0, j), 0)
	}
	for d := 1; d <= T; d++ {
		for j := d; j <= 2*T-d; j++ {
			lin := w[0]*row[j-1] + w[1]*row[j] + w[2]*row[j+1]
			if g := obstacle(d, j); g > lin {
				next[j] = g
			} else {
				next[j] = lin
			}
		}
		row, next = next, row
	}
	return row[T]
}

// TestNaiveMatchesCenteredReference: the sweep on depth-shifted columns is
// the centered Equation-5 loop, bitwise, with and without the obstacle (a
// -Inf obstacle never binds). Unshifted cell (depth, col) is shifted column
// col-depth.
func TestNaiveMatchesCenteredReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	noObstacle := func(int, int) float64 { return math.Inf(-1) }
	for trial := 0; trial < 100; trial++ {
		p := randParams(rng)
		if trial%2 == 1 {
			p.Y = 0.05 * rng.Float64()
		}
		m, err := New(p, 1+rng.Intn(600), 0)
		if err != nil {
			t.Fatal(err)
		}
		ref := centered(m, func(d, col int) float64 { return m.Exercise(option.Put, d, col-d) })
		if got := m.PriceNaive(option.Put); got != ref {
			t.Errorf("trial %d (T=%d): PriceNaive %.17g, centered reference %.17g", trial, m.T, got, ref)
		}
		eur := centered(m, noObstacle)
		if got := m.PriceEuropeanNaive(option.Put); got != eur {
			t.Errorf("trial %d (T=%d): PriceEuropeanNaive %.17g, centered reference %.17g", trial, m.T, got, eur)
		}
	}
}

// TestEuropeanMatchesBlackScholes: the FD European put converges to the
// closed form.
func TestEuropeanMatchesBlackScholes(t *testing.T) {
	p := option.Params{S: 100, K: 110, R: 0.03, V: 0.25, Y: 0, E: 1}
	bs := option.BlackScholes(p, option.Put)
	m, err := New(p, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(m.PriceEuropean(option.Put) - bs); e > 0.02 {
		t.Errorf("FD European put %.6f vs Black-Scholes %.6f (err %g)", m.PriceEuropean(option.Put), bs, e)
	}
	if e := math.Abs(m.PriceEuropeanNaive(option.Put) - bs); e > 0.02 {
		t.Errorf("naive FD European put off by %g", e)
	}
}

// TestAgreesWithBinomialAmericanPut: the FD American put and the binomial
// American put converge to the same value.
func TestAgreesWithBinomialAmericanPut(t *testing.T) {
	p := option.Params{S: 100, K: 110, R: 0.04, V: 0.25, Y: 0, E: 1}
	m, err := New(p, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := m.PriceFast()
	if err != nil {
		t.Fatal(err)
	}
	bm, err := bopm.New(p, 8000)
	if err != nil {
		t.Fatal(err)
	}
	bin := bm.PriceNaive(option.Put)
	if math.Abs(fd-bin) > 0.05 {
		t.Errorf("BSM FD put %.6f vs binomial put %.6f", fd, bin)
	}
}

// TestAmericanDominates: American put >= European put >= 0, and >= intrinsic.
func TestAmericanDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 10; trial++ {
		p := randParams(rng)
		m, err := New(p, 300, 0)
		if err != nil {
			t.Fatal(err)
		}
		am, err := m.PriceFast()
		if err != nil {
			t.Fatal(err)
		}
		if eu := m.PriceEuropean(option.Put); am < eu-1e-9 {
			t.Errorf("trial %d: American %.12g < European %.12g", trial, am, eu)
		}
		if intrinsic := math.Max(p.K-p.S, 0); am < intrinsic-1e-7*p.K {
			t.Errorf("trial %d: American put %.12g below intrinsic %.12g", trial, am, intrinsic)
		}
	}
}

func TestBaseCaseAblation(t *testing.T) {
	m, err := New(option.Default(), 1024, 0)
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

// TestLambdaInsensitivity: different stable ratios discretize the same PDE,
// so prices agree to discretization error.
func TestLambdaInsensitivity(t *testing.T) {
	p := option.Params{S: 100, K: 105, R: 0.03, V: 0.3, Y: 0, E: 1}
	var prices []float64
	for _, lam := range []float64{0.25, 1.0 / 3, 0.45} {
		m, err := New(p, 2048, lam)
		if err != nil {
			t.Fatal(err)
		}
		v, err := m.PriceFast()
		if err != nil {
			t.Fatal(err)
		}
		prices = append(prices, v)
	}
	for i := 1; i < len(prices); i++ {
		if math.Abs(prices[i]-prices[0]) > 0.05 {
			t.Errorf("lambda sensitivity too high: %v", prices)
		}
	}
}
