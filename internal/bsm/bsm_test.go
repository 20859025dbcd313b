package bsm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/fbstencil"
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
		if m.A < 0 || m.B < 0 || m.C < 0 {
			t.Fatalf("negative weight: a=%v b=%v c=%v", m.A, m.B, m.C)
		}
		if s := m.A + m.B + m.C; s > 1+1e-12 {
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
		naive := m.PriceNaive()
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
		naive := m.PriceNaive()
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
		naive := m.PriceNaive()
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
		a, b := m.PriceNaive(), m.PriceNaiveParallel()
		if a != b {
			t.Errorf("trial %d: serial %.17g parallel %.17g", trial, a, b)
		}
	}
}

// centered is the model's put as fbstencil's centered green-left problem on
// the unshifted grid, with obstacle green; its naive solve is the loop of
// Equation 5 as the paper writes it.
func (m *Model) centered(green fbstencil.GreenFunc) *fbstencil.GreenLeft {
	return &fbstencil.GreenLeft{
		Stencil: m.Stencil(),
		T:       m.T,
		Lo0:     0,
		Hi0:     2 * m.T,
		Init:    func(col int) float64 { return math.Max(m.green(col), 0) },
		Green:   green,
		Bnd0:    m.leafBoundary(),
	}
}

// TestNaiveMatchesCenteredReference: the sweep on depth-shifted columns is
// the centered Equation-5 loop, bitwise, with and without the obstacle (a
// -Inf obstacle never binds).
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
		ref, err := fbstencil.SolveGreenLeftNaive(m.centered(func(_, col int) float64 { return m.green(col) }))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := m.PriceNaive(), p.K*ref; got != want {
			t.Errorf("trial %d (T=%d): PriceNaive %.17g, centered reference %.17g", trial, m.T, got, want)
		}
		eur, err := fbstencil.SolveGreenLeftNaive(m.centered(noObstacle))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := m.PriceEuropeanNaive(), p.K*eur; got != want {
			t.Errorf("trial %d (T=%d): PriceEuropeanNaive %.17g, centered reference %.17g", trial, m.T, got, want)
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
	if e := math.Abs(m.PriceEuropean() - bs); e > 0.02 {
		t.Errorf("FD European put %.6f vs Black-Scholes %.6f (err %g)", m.PriceEuropean(), bs, e)
	}
	if e := math.Abs(m.PriceEuropeanNaive() - bs); e > 0.02 {
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
		if eu := m.PriceEuropean(); am < eu-1e-9 {
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

func TestLeafBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 20; trial++ {
		m, err := New(randParams(rng), 10+rng.Intn(300), 0)
		if err != nil {
			t.Fatal(err)
		}
		b := m.leafBoundary()
		if b >= 0 && b <= 2*m.T && m.logPrice(b) > 0 {
			t.Errorf("trial %d: boundary col %d has s > 0", trial, b)
		}
		if b < 2*m.T && m.logPrice(b+1) <= 0 {
			t.Errorf("trial %d: col %d right of boundary has s <= 0", trial, b+1)
		}
	}
}
