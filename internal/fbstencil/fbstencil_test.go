package fbstencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/par"
)

// ---------------------------------------------------------------------------
// Synthetic instances with the paper's provable structure. These mirror the
// three pricing models (without depending on the model packages) so the
// engine is tested against the exact class of problems it was designed for.
// ---------------------------------------------------------------------------

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

// bopmProblem builds the binomial American call instance (paper Section 2).
func bopmProblem(p optParams, T int) *GreenRight {
	dt := p.E / float64(T)
	u := math.Exp(p.V * math.Sqrt(dt))
	d := 1 / u
	q := (math.Exp((p.R-p.Y)*dt) - d) / (u - d)
	m := math.Exp(-p.R * dt)
	lnu := math.Log(u)
	green := func(depth, col int) float64 {
		return p.S*math.Exp(float64(2*col-T+depth)*lnu) - p.K
	}
	// Largest red leaf: exercise value <= 0.
	bnd0 := int(math.Floor((float64(T) + math.Log(p.K/p.S)/lnu) / 2))
	if bnd0 > T {
		bnd0 = T
	}
	if bnd0 < -1 {
		bnd0 = -1
	}
	return &GreenRight{
		Stencil: linstencil.Stencil{MinOff: 0, W: []float64{m * (1 - q), m * q}},
		T:       T,
		Hi0:     T,
		Init:    func(col int) float64 { return math.Max(0, green(0, col)) },
		Green:   green,
		Bnd0:    bnd0,
	}
}

// topmProblem builds the trinomial American call instance (paper Section 3
// and Appendix A).
func topmProblem(p optParams, T int) *GreenRight {
	dt := p.E / float64(T)
	sqU := math.Exp(p.V * math.Sqrt(dt/2)) // sqrt(u)
	sqD := 1 / sqU
	eh := math.Exp((p.R - p.Y) * dt / 2)
	pu := (eh - sqD) / (sqU - sqD)
	pu *= pu
	pd := (sqU - eh) / (sqU - sqD)
	pd *= pd
	po := 1 - pu - pd
	m := math.Exp(-p.R * dt)
	lnu := 2 * math.Log(sqU)
	green := func(depth, col int) float64 {
		return p.S*math.Exp(float64(col-T+depth)*lnu) - p.K
	}
	bnd0 := int(math.Floor(float64(T) + math.Log(p.K/p.S)/lnu))
	if bnd0 > 2*T {
		bnd0 = 2 * T
	}
	if bnd0 < -1 {
		bnd0 = -1
	}
	return &GreenRight{
		Stencil: linstencil.Stencil{MinOff: 0, W: []float64{m * pd, m * po, m * pu}},
		T:       T,
		Hi0:     2 * T,
		Init:    func(col int) float64 { return math.Max(0, green(0, col)) },
		Green:   green,
		Bnd0:    bnd0,
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

// spanProblem builds an American call on a lattice of span r (see
// spanWeights). r=1 is the binomial tree, r=2 a trinomial one; r=3
// exercises a span the pricing models do not.
func spanProblem(p optParams, T, r int) *GreenRight {
	w, lnx := spanWeights(p, T, r)
	green := func(depth, col int) float64 {
		return p.S*math.Exp((float64(col)+float64(r*(depth-T))/2)*lnx) - p.K
	}
	bnd0 := -1
	for bnd0 < T*r && green(0, bnd0+1) <= 0 {
		bnd0++
	}
	return &GreenRight{
		Stencil: linstencil.Stencil{MinOff: 0, W: w},
		T:       T,
		Hi0:     T * r,
		Init:    func(col int) float64 { return math.Max(0, green(0, col)) },
		Green:   green,
		Bnd0:    bnd0,
	}
}

// strictGrid makes Init and Green panic off the documented grid: Init on
// [0, Hi0], Green at depths [0, T] on columns [0, Hi0-d*r].
func strictGrid(q *GreenRight) {
	init, green := q.Init, q.Green
	T, hi0, r := q.T, q.Hi0, q.Stencil.Span()
	q.Init = func(col int) float64 {
		if col < 0 || col > hi0 {
			panic(fmt.Sprintf("Init(%d) off the grid [0, %d]", col, hi0))
		}
		return init(col)
	}
	q.Green = func(depth, col int) float64 {
		if depth < 0 || depth > T || col < 0 || col > hi0-depth*r {
			panic(fmt.Sprintf("Green(%d, %d) off the grid (T=%d, Hi0=%d, r=%d)", depth, col, T, hi0, r))
		}
		return green(depth, col)
	}
}

// bsmProblem builds the Black-Scholes-Merton American put FD instance (paper
// Section 4) with lambda = dtau/ds^2 chosen to satisfy Theorem 4.3's
// positivity requirements.
func bsmProblem(p optParams, T int) *GreenLeft {
	sigma := p.V
	omega := 2 * p.R / (sigma * sigma)
	omegaD := 2 * (p.R - p.Y) / (sigma * sigma) // dividend-extended drift
	tauMax := sigma * sigma * p.E / 2
	dtau := tauMax / float64(T)
	lambda := 1.0 / 3
	ds := math.Sqrt(dtau / lambda)
	a := dtau/(ds*ds) + (omegaD-1)*dtau/(2*ds) // weight on k+1
	b := dtau/(ds*ds) - (omegaD-1)*dtau/(2*ds) // weight on k-1
	c := 1 - omega*dtau - 2*dtau/(ds*ds)
	s0 := math.Log(p.S / p.K)
	sAt := func(col int) float64 { return s0 + float64(col-T)*ds }
	green := func(depth, col int) float64 { return 1 - math.Exp(sAt(col)) }
	bnd0 := int(math.Floor(float64(T) - s0/ds))
	if bnd0 > 2*T {
		bnd0 = 2 * T
	}
	if bnd0 < -1 {
		bnd0 = -1
	}
	return &GreenLeft{
		Stencil: linstencil.Stencil{MinOff: -1, W: []float64{b, c, a}},
		T:       T,
		Lo0:     0,
		Hi0:     2 * T,
		Init:    func(col int) float64 { return math.Max(green(0, col), 0) },
		Green:   green,
		Bnd0:    bnd0,
	}
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}

// ---------------------------------------------------------------------------
// Fast solver vs naive oracle.
// ---------------------------------------------------------------------------

func TestGreenRightBOPMMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		p := randOptParams(rng)
		T := 16 + rng.Intn(500)
		prob := bopmProblem(p, T)
		fast, _, err := SolveGreenRight(prob, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		naive, err := SolveGreenRightNaive(prob)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := relDiff(fast, naive); d > 1e-10 {
			t.Errorf("trial %d (T=%d, params %+v): fast %.12g naive %.12g rel %g",
				trial, T, p, fast, naive, d)
		}
	}
}

func TestGreenRightTOPMMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		p := randOptParams(rng)
		T := 16 + rng.Intn(300)
		prob := topmProblem(p, T)
		fast, _, err := SolveGreenRight(prob, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		naive, err := SolveGreenRightNaive(prob)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := relDiff(fast, naive); d > 1e-10 {
			t.Errorf("trial %d (T=%d, params %+v): fast %.12g naive %.12g rel %g",
				trial, T, p, fast, naive, d)
		}
	}
}

func TestGreenLeftBSMMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		p := randOptParams(rng)
		T := 16 + rng.Intn(300)
		prob := bsmProblem(p, T)
		fast, _, err := SolveGreenLeft(prob, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		naive, err := SolveGreenLeftNaive(prob)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := relDiff(fast, naive); d > 1e-10 {
			t.Errorf("trial %d (T=%d, params %+v): fast %.12g naive %.12g rel %g",
				trial, T, p, fast, naive, d)
		}
	}
}

// TestGreenRightGeometry covers SolveGreenRight's mapping onto mirrored
// columns against the direct sweep: spans 1 to 3, initial rows wider than
// the apex's cone, Bnd0 declared all green (-1), all red (Hi0) and past the
// cone, a dividend yield above the rate, and T from 0 to 2000. Init and
// Green panic off the documented grid.
func TestGreenRightGeometry(t *testing.T) {
	atm := optParams{S: 100, K: 100, R: 0.05, V: 0.3, Y: 0.02, E: 1}
	rows := []struct {
		name  string
		p     optParams
		build func(*GreenRight)
	}{
		{"mixed", atm, func(*GreenRight) {}},
		// Cells right of the apex's cone exist but cannot reach it.
		{"wide row", atm, func(q *GreenRight) { q.Hi0 += 7 }},
		// Every initial cell declared red: the solver must classify the
		// payoff's green suffix itself on its first step.
		{"all red", atm, func(q *GreenRight) { q.Bnd0 = q.Hi0 }},
		{"red past the cone", atm, func(q *GreenRight) { q.Hi0 += 7; q.Bnd0 = q.Hi0 - 2 }},
		// The whole initial row is the exercise value, declared green.
		{"all green", optParams{S: 400, K: 10, R: 0.001, V: 0.1, Y: 0.5, E: 2}, func(q *GreenRight) {
			green := q.Green
			q.Init = func(col int) float64 { return green(0, col) }
			q.Bnd0 = -1
		}},
		{"Y > R", optParams{S: 100, K: 90, R: 0.01, V: 0.25, Y: 0.08, E: 2}, func(*GreenRight) {}},
	}
	for _, T := range []int{0, 1, 2, 3, 64, 333, 2000} {
		for r := 1; r <= 3; r++ {
			for _, row := range rows {
				prob := spanProblem(row.p, max(T, 1), r)
				prob.T = T
				row.build(prob)
				strictGrid(prob)
				fast, _, err := SolveGreenRight(prob, nil)
				if err != nil {
					t.Fatalf("%s T=%d r=%d: %v", row.name, T, r, err)
				}
				naive, err := SolveGreenRightNaive(prob)
				if err != nil {
					t.Fatalf("%s T=%d r=%d: %v", row.name, T, r, err)
				}
				if d := relDiff(fast, naive); d > 1e-10 {
					t.Errorf("%s T=%d r=%d: fast %.12g naive %.12g rel %g", row.name, T, r, fast, naive, d)
				}
			}
		}
	}
}

// shiftGL moves a GreenLeft instance so its initial row starts at column lo.
func shiftGL(p *GreenLeft, lo int) *GreenLeft {
	q := *p
	off := lo - p.Lo0
	q.Lo0, q.Hi0, q.Bnd0 = p.Lo0+off, p.Hi0+off, p.Bnd0+off
	q.Init = func(col int) float64 { return p.Init(col - off) }
	q.Green = func(depth, col int) float64 { return p.Green(depth, col-off) }
	return &q
}

// TestGreenLeftGeometry covers SolveGreenLeft's mapping onto depth-shifted
// columns: initial rows starting left of, at and right of column 0, tiny
// and large T, rows declared all red or all green, and a dividend yield
// above the rate, each against the direct sweep.
func TestGreenLeftGeometry(t *testing.T) {
	atm := optParams{S: 100, K: 100, R: 0.05, V: 0.3, Y: 0.02, E: 1}
	rows := []struct {
		name  string
		p     optParams
		build func(*GreenLeft)
	}{
		{"mixed", atm, func(*GreenLeft) {}},
		// Every initial cell declared red: the solver must classify the
		// payoff's green prefix itself on its first step.
		{"all red", atm, func(q *GreenLeft) { q.Bnd0 = q.Lo0 - 1 }},
		// The whole initial row is the exercise value, declared green past
		// the row end.
		{"all green", optParams{S: 20, K: 300, R: 0.05, V: 0.2, Y: 0, E: 0.5}, func(q *GreenLeft) {
			green := q.Green
			q.Init = func(col int) float64 { return green(0, col) }
			q.Bnd0 = q.Hi0 + 5
		}},
		{"Y > R", optParams{S: 100, K: 110, R: 0.01, V: 0.25, Y: 0.08, E: 2}, func(*GreenLeft) {}},
	}
	for _, T := range []int{1, 2, 3, 64, 333, 2000} {
		for _, lo := range []int{0, -T, 17} {
			for _, row := range rows {
				prob := shiftGL(bsmProblem(row.p, T), lo)
				row.build(prob)
				fast, _, err := SolveGreenLeft(prob, nil)
				if err != nil {
					t.Fatalf("%s T=%d Lo0=%d: %v", row.name, T, lo, err)
				}
				naive, err := SolveGreenLeftNaive(prob)
				if err != nil {
					t.Fatalf("%s T=%d Lo0=%d: %v", row.name, T, lo, err)
				}
				if d := relDiff(fast, naive); d > 1e-10 {
					t.Errorf("%s T=%d Lo0=%d: fast %.12g naive %.12g rel %g", row.name, T, lo, fast, naive, d)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Structural lemmas verified empirically (Cor. 2.7, Cor. A.6, Thm 4.3).
// ---------------------------------------------------------------------------

func TestBOPMBoundaryStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 30; trial++ {
		prob := bopmProblem(randOptParams(rng), 16+rng.Intn(250))
		if _, err := GreenRightBoundaryTrace(prob); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

func TestTOPMBoundaryStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 20; trial++ {
		prob := topmProblem(randOptParams(rng), 16+rng.Intn(200))
		if _, err := GreenRightBoundaryTrace(prob); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

func TestBSMBoundaryStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 20; trial++ {
		prob := bsmProblem(randOptParams(rng), 16+rng.Intn(200))
		if _, err := GreenLeftBoundaryTrace(prob); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Edge cases.
// ---------------------------------------------------------------------------

// TestGreenRightAllRed: with zero dividend yield an American call is never
// exercised early — the whole grid is red and the solve is one long linear
// evolution.
func TestGreenRightAllRed(t *testing.T) {
	p := optParams{S: 100, K: 100, R: 0.05, V: 0.3, Y: 0, E: 1}
	T := 700
	prob := bopmProblem(p, T)
	// With Y=0 the continuation value always dominates from depth 1 onward,
	// so the grid becomes all-red after the first step.
	trace, err := GreenRightBoundaryTrace(prob)
	if err != nil {
		t.Fatal(err)
	}
	if trace[1] != T-1 {
		t.Fatalf("Y=0: depth-1 boundary %d, want all red (%d)", trace[1], T-1)
	}
	fast, bnd, err := SolveGreenRight(prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := SolveGreenRightNaive(prob)
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(fast, naive); d > 1e-10 {
		t.Errorf("all-red: fast %.12g naive %.12g", fast, naive)
	}
	if bnd != 0 {
		t.Errorf("all-red final boundary = %d, want 0", bnd)
	}
}

// TestGreenRightAllGreen: if the exercise value dominates everywhere the
// apex is the closed form.
func TestGreenRightAllGreen(t *testing.T) {
	// Deep in-the-money with huge dividend yield: exercise immediately.
	p := optParams{S: 400, K: 10, R: 0.001, V: 0.1, Y: 0.5, E: 2}
	T := 300
	prob := bopmProblem(p, T)
	fast, bnd, err := SolveGreenRight(prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := SolveGreenRightNaive(prob)
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(fast, naive); d > 1e-10 {
		t.Errorf("all-green: fast %.12g naive %.12g", fast, naive)
	}
	if bnd != -1 {
		t.Errorf("all-green final boundary = %d, want -1", bnd)
	}
	if want := p.S - p.K; relDiff(fast, want) > 1e-9 {
		t.Errorf("deep ITM immediate exercise: got %.12g want %.12g", fast, want)
	}
}

// TestGreenLeftDeepOTM: a put far out of the money has an all-red cone.
func TestGreenLeftDeepOTM(t *testing.T) {
	p := optParams{S: 300, K: 5, R: 0.05, V: 0.2, Y: 0, E: 0.5}
	T := 400
	prob := bsmProblem(p, T)
	if prob.Bnd0 >= 0 {
		t.Fatalf("expected boundary left of the cone, Bnd0=%d", prob.Bnd0)
	}
	fast, _, err := SolveGreenLeft(prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := SolveGreenLeftNaive(prob)
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(fast, naive); d > 1e-10 {
		t.Errorf("deep OTM: fast %.12g naive %.12g", fast, naive)
	}
}

// TestGreenLeftDeepITM: a put far in the money is exercised immediately.
func TestGreenLeftDeepITM(t *testing.T) {
	p := optParams{S: 10, K: 300, R: 0.05, V: 0.2, Y: 0, E: 0.5}
	T := 400
	prob := bsmProblem(p, T)
	fast, _, err := SolveGreenLeft(prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := SolveGreenLeftNaive(prob)
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(fast, naive); d > 1e-10 {
		t.Errorf("deep ITM: fast %.12g naive %.12g", fast, naive)
	}
	// Dimensionless value 1 - S/K.
	if want := 1 - p.S/p.K; relDiff(fast, want) > 1e-9 {
		t.Errorf("deep ITM put: got %.12g want %.12g", fast, want)
	}
}

func TestTinyT(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for T := 1; T <= 12; T++ {
		for trial := 0; trial < 5; trial++ {
			p := randOptParams(rng)
			prob := bopmProblem(p, T)
			fast, _, err := SolveGreenRight(prob, nil)
			if err != nil {
				t.Fatalf("T=%d: %v", T, err)
			}
			naive, err := SolveGreenRightNaive(prob)
			if err != nil {
				t.Fatalf("T=%d: %v", T, err)
			}
			if d := relDiff(fast, naive); d > 1e-12 {
				t.Errorf("T=%d trial=%d: fast %.12g naive %.12g", T, trial, fast, naive)
			}
		}
	}
	// T=0 returns the initial apex value directly.
	prob := bopmProblem(optParams{S: 150, K: 100, R: 0.02, V: 0.3, Y: 0.05, E: 1}, 1)
	prob.T = 0
	fast, _, err := SolveGreenRight(prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := SolveGreenRightNaive(prob)
	if err != nil {
		t.Fatal(err)
	}
	if fast != naive {
		t.Errorf("T=0: fast %.12g naive %.12g", fast, naive)
	}
}

// TestBaseCaseInvariance: the answer must not depend on the recursion cutoff,
// from all direct steps (base 1) through the default.
func TestBaseCaseInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	p := randOptParams(rng)
	T := 333
	var ref float64
	for i, base := range []int{1, 4, 8, 23, DefaultBaseCase, 64, 1000} {
		prob := bopmProblem(p, T)
		prob.BaseCase = base
		v, _, err := SolveGreenRight(prob, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = v
			continue
		}
		if d := relDiff(v, ref); d > 1e-10 {
			t.Errorf("base=%d: %.12g differs from ref %.12g", base, v, ref)
		}
	}
	for i, base := range []int{1, 4, 8, 23, DefaultBaseCase, 64, 1000} {
		prob := bsmProblem(p, T)
		prob.BaseCase = base
		v, _, err := SolveGreenLeft(prob, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = v
			continue
		}
		if d := relDiff(v, ref); d > 1e-10 {
			t.Errorf("GreenLeft base=%d: %.12g differs from ref %.12g", base, v, ref)
		}
	}
}

// TestSerialParallelAgree: worker count must not change results.
func TestSerialParallelAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := randOptParams(rng)
	T := 1024

	prob := bopmProblem(p, T)
	vPar, _, err := SolveGreenRight(prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := par.SetWorkers(1)
	vSer, _, err := SolveGreenRight(prob, nil)
	par.SetWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	if vPar != vSer {
		t.Errorf("parallel %.17g != serial %.17g", vPar, vSer)
	}

	probC := bsmProblem(p, T)
	cPar, _, err := SolveGreenLeft(probC, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev = par.SetWorkers(1)
	cSer, _, err := SolveGreenLeft(probC, nil)
	par.SetWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	if cPar != cSer {
		t.Errorf("GreenLeft parallel %.17g != serial %.17g", cPar, cSer)
	}
}

// TestSubquadraticWork: the counters must show the fast solver touches far
// fewer cells directly than the Theta(T^2) sweep.
func TestSubquadraticWork(t *testing.T) {
	p := optParams{S: 127.62, K: 130, R: 0.05, V: 0.25, Y: 0.03, E: 1}
	T := 1 << 13
	var st Stats
	if _, _, err := SolveGreenRight(bopmProblem(p, T), &st); err != nil {
		t.Fatal(err)
	}
	naiveCells := st.NaiveCells.Load()
	quad := int64(T) * int64(T) / 2
	if naiveCells > quad/16 {
		t.Errorf("naive cells %d not subquadratic (T^2/2 = %d)", naiveCells, quad)
	}
	if st.FFTCalls.Load() == 0 {
		t.Error("fast solver made no FFT calls on a large instance")
	}

	var stC Stats
	if _, _, err := SolveGreenLeft(bsmProblem(p, T), &stC); err != nil {
		t.Fatal(err)
	}
	if stC.NaiveCells.Load() > 2*int64(T)*int64(T)/16 {
		t.Errorf("GreenLeft naive cells %d not subquadratic", stC.NaiveCells.Load())
	}
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

func TestValidation(t *testing.T) {
	good := bopmProblem(optParams{S: 100, K: 100, R: 0.02, V: 0.2, Y: 0.02, E: 1}, 32)
	cases := map[string]func(){
		"bad MinOff":   func() { good.Stencil.MinOff = 1 },
		"narrow row":   func() { good.Hi0 = good.T - 1 },
		"negative T":   func() { good.T = -1 },
		"nil Init":     func() { good.Init = nil },
		"nil Green":    func() { good.Green = nil },
		"Bnd0 too big": func() { good.Bnd0 = good.Hi0 + 1 },
	}
	for name, mutate := range cases {
		good = bopmProblem(optParams{S: 100, K: 100, R: 0.02, V: 0.2, Y: 0.02, E: 1}, 32)
		mutate()
		if _, _, err := SolveGreenRight(good, nil); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}

	gl := bsmProblem(optParams{S: 100, K: 100, R: 0.02, V: 0.2, Y: 0, E: 1}, 32)
	gl.Hi0++ // width no longer 2T
	if _, _, err := SolveGreenLeft(gl, nil); err == nil {
		t.Error("GreenLeft bad width: expected validation error")
	}
	gl = bsmProblem(optParams{S: 100, K: 100, R: 0.02, V: 0.2, Y: 0, E: 1}, 32)
	gl.Stencil.MinOff = 0
	if _, _, err := SolveGreenLeft(gl, nil); err == nil {
		t.Error("GreenLeft bad stencil: expected validation error")
	}
}

func BenchmarkGreenRightFast8K(b *testing.B) {
	p := optParams{S: 127.62, K: 130, R: 0.00163, V: 0.2, Y: 0.0163, E: 1}
	prob := bopmProblem(p, 1<<13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveGreenRight(prob, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreenLeftFast8K(b *testing.B) {
	p := optParams{S: 127.62, K: 130, R: 0.00163, V: 0.2, Y: 0, E: 1}
	prob := bsmProblem(p, 1<<13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveGreenLeft(prob, nil); err != nil {
			b.Fatal(err)
		}
	}
}
