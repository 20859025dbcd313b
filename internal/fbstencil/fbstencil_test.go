package fbstencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/nlstencil/amop/internal/linstencil"
)

// Synthetic instances with the paper's provable structure (built here and in
// greenleftos_test.go). They mirror the pricing models without depending on
// the model packages, so the engine is tested against the exact class of
// problems it was designed for.

type optParams struct {
	S, K, R, V, Y, E float64
}

func randOptParams(rng *rand.Rand) optParams {
	return optParams{
		S: 80 + 80*rng.Float64(),
		K: 80 + 80*rng.Float64(),
		R: 0.001 + 0.08*rng.Float64(),
		V: 0.1 + 0.4*rng.Float64(),
		Y: 0.005 + 0.08*rng.Float64(),
		E: 0.25 + 1.5*rng.Float64(),
	}
}

// spanWeights returns the weights of a lattice of span r, each step r
// binomial substeps of factor sqrt(x) up or down collapsed into one stencil
// with binomial(r, q) weights, and ln x.
func spanWeights(p optParams, T, r int) ([]float64, float64) {
	dt := p.E / float64(T)
	lnx := 2 * p.V * math.Sqrt(dt/float64(r)) // ln x; a substep moves by sqrt(x)
	sq := math.Exp(lnx / 2)
	q := (math.Exp((p.R-p.Y)*dt/float64(r)) - 1/sq) / (sq - 1/sq)
	disc := math.Exp(-p.R * dt)
	w := make([]float64, r+1)
	for k := range w {
		binom := 1.0
		for i := 0; i < k; i++ {
			binom = binom * float64(r-i) / float64(i+1)
		}
		w[k] = disc * binom * math.Pow(q, float64(k)) * math.Pow(1-q, float64(r-k))
	}
	return w, lnx
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}

// The paper's three pricing instances in the engine's columns. The American
// call (green on the right) runs in mirrored columns c' = (T-d)*r - c, and
// the Black-Scholes-Merton put (centered stencil) in depth-shifted columns
// c' = c - d; both are then green-left problems with offsets 0..r.

// callProblem builds the American call on a lattice of span r (see
// spanWeights) in mirrored columns: r=1 is the binomial tree of Section 2,
// r=2 the trinomial one of Section 3 and Appendix A. It returns the
// problem and the map from its boundary at depth d, the largest green
// column, back to the call's largest red column.
func callProblem(p optParams, T, r int) (*GreenLeftOneSided, func(d, g int) int) {
	w, lnx := spanWeights(p, T, r)
	hi := T * r
	green := func(depth, col int) float64 {
		return p.S*math.Exp((float64(col)+float64(r*(depth-T))/2)*lnx) - p.K
	}
	bnd0 := -1 // the call's largest red leaf
	for bnd0 < hi && green(0, bnd0+1) <= 0 {
		bnd0++
	}
	mirror := func(d, c int) int { return (T-d)*r - c }
	rev := make([]float64, r+1)
	for i, wi := range w {
		rev[r-i] = wi
	}
	return &GreenLeftOneSided{
		Stencil: linstencil.Stencil{MinOff: 0, W: rev},
		T:       T,
		Hi0:     hi,
		Init:    func(c int) float64 { return math.Max(0, green(0, hi-c)) },
		Fill:    rowFill(func(d, c int) float64 { return green(d, mirror(d, c)) }),
		Bnd0:    hi - bnd0 - 1,
		MaxDrop: r,
	}, func(d, g int) int { return mirror(d, g) - 1 }
}

// bsmProblem builds the Black-Scholes-Merton American put FD instance (paper
// Section 4) in depth-shifted columns, with lambda = dtau/ds^2 = 1/3 chosen
// to satisfy Theorem 4.3's positivity requirements. It returns the problem
// and the map from its boundary at depth d back to the put's columns
// [d, 2T-d].
func bsmProblem(p optParams, T int) (*GreenLeftOneSided, func(d, g int) int) {
	omega := 2 * p.R / (p.V * p.V)
	omegaD := 2 * (p.R - p.Y) / (p.V * p.V) // dividend-extended drift
	dtau := p.V * p.V * p.E / 2 / float64(T)
	ds := math.Sqrt(3 * dtau)
	a := dtau/(ds*ds) + (omegaD-1)*dtau/(2*ds) // weight on k+1
	b := dtau/(ds*ds) - (omegaD-1)*dtau/(2*ds) // weight on k-1
	c := 1 - omega*dtau - 2*dtau/(ds*ds)
	s0 := math.Log(p.S / p.K)
	green := func(_, col int) float64 { return 1 - math.Exp(s0+float64(col-T)*ds) }
	shift := func(d, c int) int { return c + d }
	return &GreenLeftOneSided{
		Stencil: linstencil.Stencil{MinOff: 0, W: []float64{b, c, a}},
		T:       T,
		Hi0:     2 * T,
		Init:    func(col int) float64 { return math.Max(green(0, col), 0) },
		Fill:    rowFill(func(d, c int) float64 { return green(d, shift(d, c)) }),
		Bnd0:    min(max(int(math.Floor(float64(T)-s0/ds)), -1), 2*T),
		MaxDrop: 2,
	}, shift
}

// structure traces prob's boundary, maps it back to the model's columns
// and checks the model's lemma there: from depth 2 on, the boundary stays
// or moves one column left of where it was, once clamped to the cone
// [lo(d)-1, hi(d)].
func structure(prob *GreenLeftOneSided, back func(d, g int) int, lo, hi func(d int) int) error {
	trace, err := GreenLeftOneSidedBoundaryTrace(prob)
	if err != nil {
		return err
	}
	for d, g := range trace {
		trace[d] = back(d, g)
	}
	for d := 2; d < len(trace); d++ {
		prev := min(max(trace[d-1], lo(d)-1), hi(d))
		if b := trace[d]; b > prev || b < prev-1 {
			return fmt.Errorf("boundary %d at depth %d, %d at depth %d", trace[d-1], d-1, b, d)
		}
	}
	return nil
}

// matchesNaive solves prob fast and by the direct sweep and returns both.
func matchesNaive(t *testing.T, name string, prob *GreenLeftOneSided) (fast, naive float64) {
	t.Helper()
	fast, _, err := SolveGreenLeftOneSided(prob, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	naive, err = SolveGreenLeftOneSidedNaive(prob)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if d := relDiff(fast, naive); d > 1e-10 {
		t.Errorf("%s: fast %.12g naive %.12g rel %g", name, fast, naive, d)
	}
	return fast, naive
}

func TestGreenRightBOPMMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		p := randOptParams(rng)
		prob, _ := callProblem(p, 16+rng.Intn(500), 1)
		matchesNaive(t, fmt.Sprintf("trial %d (T=%d, %+v)", trial, prob.T, p), prob)
	}
}

func TestGreenRightTOPMMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		p := randOptParams(rng)
		prob, _ := callProblem(p, 16+rng.Intn(300), 2)
		matchesNaive(t, fmt.Sprintf("trial %d (T=%d, %+v)", trial, prob.T, p), prob)
	}
}

func TestGreenLeftBSMMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		p := randOptParams(rng)
		prob, _ := bsmProblem(p, 16+rng.Intn(300))
		matchesNaive(t, fmt.Sprintf("trial %d (T=%d, %+v)", trial, prob.T, p), prob)
	}
}

// Structural lemmas verified empirically (Cor. 2.7, Cor. A.6, Thm 4.3), on
// the call's largest red column and the put's largest green column.

func TestBOPMBoundaryStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 30; trial++ {
		prob, back := callProblem(randOptParams(rng), 16+rng.Intn(250), 1)
		T := prob.T
		if err := structure(prob, back, func(int) int { return 0 }, func(d int) int { return T - d }); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

func TestTOPMBoundaryStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 20; trial++ {
		prob, back := callProblem(randOptParams(rng), 16+rng.Intn(200), 2)
		T := prob.T
		if err := structure(prob, back, func(int) int { return 0 }, func(d int) int { return 2 * (T - d) }); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

func TestBSMBoundaryStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 20; trial++ {
		prob, back := bsmProblem(randOptParams(rng), 16+rng.Intn(200))
		T := prob.T
		if err := structure(prob, back, func(d int) int { return d }, func(d int) int { return 2*T - d }); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

// TestGreenLeftDeepOTM: a put far out of the money has an all-red cone.
func TestGreenLeftDeepOTM(t *testing.T) {
	prob, _ := bsmProblem(optParams{S: 300, K: 5, R: 0.05, V: 0.2, Y: 0, E: 0.5}, 400)
	if prob.Bnd0 >= 0 {
		t.Fatalf("expected boundary left of the cone, Bnd0=%d", prob.Bnd0)
	}
	matchesNaive(t, "deep OTM", prob)
}

// TestGreenLeftDeepITM: a put far in the money is exercised immediately.
func TestGreenLeftDeepITM(t *testing.T) {
	p := optParams{S: 10, K: 300, R: 0.05, V: 0.2, Y: 0, E: 0.5}
	prob, _ := bsmProblem(p, 400)
	fast, _ := matchesNaive(t, "deep ITM", prob)
	// Dimensionless value 1 - S/K.
	if want := 1 - p.S/p.K; relDiff(fast, want) > 1e-9 {
		t.Errorf("deep ITM put: got %.12g want %.12g", fast, want)
	}
}
