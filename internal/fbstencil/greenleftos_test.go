package fbstencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/par"
)

// rowFill fills an obstacle row cell by cell from green.
func rowFill(green GreenFunc) FillFunc {
	return func(depth, lo, _ int, out []float64) {
		for i := range out {
			out[i] = green(depth, lo+i)
		}
	}
}

// putProblemBOPM builds a binomial-put-like green-left instance (span 1).
func putProblemBOPM(p optParams, T int) *GreenLeftOneSided {
	dt := p.E / float64(T)
	u := math.Exp(p.V * math.Sqrt(dt))
	d := 1 / u
	q := (math.Exp((p.R-p.Y)*dt) - d) / (u - d)
	disc := math.Exp(-p.R * dt)
	lnu := math.Log(u)
	green := func(depth, col int) float64 {
		return p.K - p.S*math.Exp(float64(2*col-T+depth)*lnu)
	}
	bnd0 := -1
	for j := 0; j <= T; j++ {
		if green(0, j) > 0 {
			bnd0 = j
		}
	}
	return &GreenLeftOneSided{
		Stencil: linstencil.Stencil{MinOff: 0, W: []float64{disc * (1 - q), disc * q}},
		T:       T,
		Hi0:     T,
		Init:    func(col int) float64 { return math.Max(0, green(0, col)) },
		Fill:    rowFill(green),
		Bnd0:    bnd0,
		MaxDrop: 1,
	}
}

// putProblemTOPM builds a trinomial-put-like instance (span 2, MaxDrop 2).
func putProblemTOPM(p optParams, T int) *GreenLeftOneSided {
	dt := p.E / float64(T)
	sqU := math.Exp(p.V * math.Sqrt(dt/2))
	sqD := 1 / sqU
	eh := math.Exp((p.R - p.Y) * dt / 2)
	pu := (eh - sqD) / (sqU - sqD)
	pu *= pu
	pd := (sqU - eh) / (sqU - sqD)
	pd *= pd
	po := 1 - pu - pd
	disc := math.Exp(-p.R * dt)
	lnu := 2 * math.Log(sqU)
	green := func(depth, col int) float64 {
		return p.K - p.S*math.Exp(float64(col-T+depth)*lnu)
	}
	bnd0 := -1
	for j := 0; j <= 2*T; j++ {
		if green(0, j) > 0 {
			bnd0 = j
		}
	}
	return &GreenLeftOneSided{
		Stencil: linstencil.Stencil{MinOff: 0, W: []float64{disc * pd, disc * po, disc * pu}},
		T:       T,
		Hi0:     2 * T,
		Init:    func(col int) float64 { return math.Max(0, green(0, col)) },
		Fill:    rowFill(green),
		Bnd0:    bnd0,
		MaxDrop: 2,
	}
}

// spanPut builds the American put on a lattice of span r (see spanWeights)
// in its own columns, green on the left, with MaxDrop r. At r=3 it is a
// four-branch put: weights disc*{(1-q)^3, 3(1-q)^2 q, 3(1-q)q^2, q^3}.
// Init and Fill panic off the grid.
func spanPut(p optParams, T, r int) *GreenLeftOneSided {
	w, lnx := spanWeights(p, T, r)
	hi0 := T * r
	green := func(depth, col int) float64 {
		if depth < 0 || depth > T || col < 0 || col > hi0-depth*r {
			panic(fmt.Sprintf("obstacle (%d, %d) off the grid (T=%d, Hi0=%d, r=%d)", depth, col, T, hi0, r))
		}
		return p.K - p.S*math.Exp((float64(col)+float64(r*(depth-T))/2)*lnx)
	}
	bnd0 := -1
	for bnd0 < hi0 && green(0, bnd0+1) > 0 {
		bnd0++
	}
	return &GreenLeftOneSided{
		Stencil: linstencil.Stencil{MinOff: 0, W: w},
		T:       T,
		Hi0:     hi0,
		Init:    func(col int) float64 { return math.Max(0, green(0, col)) },
		Fill:    rowFill(green),
		Bnd0:    bnd0,
		MaxDrop: r,
	}
}

// TestGreenLeftOneSidedSpan3 runs a four-branch put: span 3, so the direct
// step takes linstencil.Step's generic loop, and drops of up to 3. The
// structure must hold, and the solve must match the direct sweep at every
// base case without reading the obstacle off the grid.
func TestGreenLeftOneSidedSpan3(t *testing.T) {
	for _, T := range []int{50, 300, 1000} {
		for _, K := range []float64{80, 100, 105, 130} {
			prob := spanPut(optParams{S: 100, K: K, R: 0.05, V: 0.3, Y: 0.02, E: 1}, T, 3)
			if _, err := GreenLeftOneSidedBoundaryTrace(prob); err != nil {
				t.Fatalf("T=%d K=%v: %v", T, K, err)
			}
			naive, err := SolveGreenLeftOneSidedNaive(prob)
			if err != nil {
				t.Fatal(err)
			}
			for _, base := range []int{1, 3, 8, 64} {
				prob.BaseCase = base
				fast, _, err := SolveGreenLeftOneSided(prob, nil)
				if err != nil {
					t.Fatalf("T=%d K=%v base=%d: %v", T, K, base, err)
				}
				if d := relDiff(fast, naive); d > 1e-12 {
					t.Errorf("T=%d K=%v base=%d: fast %.15g naive %.15g rel %g", T, K, base, fast, naive, d)
				}
			}
		}
	}
}

func TestGreenLeftOneSidedMatchesNaiveSpan1(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 40; trial++ {
		p := randOptParams(rng)
		if trial%3 == 0 {
			p.Y = 0
		}
		prob := putProblemBOPM(p, 16+rng.Intn(500))
		fast, _, err := SolveGreenLeftOneSided(prob, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		naive, err := SolveGreenLeftOneSidedNaive(prob)
		if err != nil {
			t.Fatal(err)
		}
		if d := relDiff(fast, naive); d > 1e-10 {
			t.Errorf("trial %d (T=%d, %+v): fast %.12g naive %.12g rel %g", trial, prob.T, p, fast, naive, d)
		}
	}
}

func TestGreenLeftOneSidedMatchesNaiveSpan2(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 25; trial++ {
		p := randOptParams(rng)
		prob := putProblemTOPM(p, 16+rng.Intn(300))
		fast, _, err := SolveGreenLeftOneSided(prob, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		naive, err := SolveGreenLeftOneSidedNaive(prob)
		if err != nil {
			t.Fatal(err)
		}
		if d := relDiff(fast, naive); d > 1e-10 {
			t.Errorf("trial %d (T=%d): fast %.12g naive %.12g rel %g", trial, prob.T, fast, naive, d)
		}
	}
}

// TestGreenLeftOneSidedUnderestimatedDrop: a span-2 instance solved with
// MaxDrop=1 violates the zone window assumption; the validator must flag the
// structure so users know MaxDrop=2 is required.
func TestGreenLeftOneSidedUnderestimatedDrop(t *testing.T) {
	p := optParams{S: 120, K: 110, R: 0.05, V: 0.25, Y: 0.02, E: 1}
	prob := putProblemTOPM(p, 300)
	prob.MaxDrop = 1
	if _, err := GreenLeftOneSidedBoundaryTrace(prob); err == nil {
		t.Error("validator accepted a span-2 put with MaxDrop=1")
	}
	prob.MaxDrop = 2
	if _, err := GreenLeftOneSidedBoundaryTrace(prob); err != nil {
		t.Errorf("validator rejected MaxDrop=2: %v", err)
	}
}

func TestGreenLeftOneSidedBoundaryStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 20; trial++ {
		prob := putProblemBOPM(randOptParams(rng), 16+rng.Intn(300))
		if _, err := GreenLeftOneSidedBoundaryTrace(prob); err != nil {
			t.Errorf("span1 trial %d: %v", trial, err)
		}
	}
	for trial := 0; trial < 12; trial++ {
		prob := putProblemTOPM(randOptParams(rng), 16+rng.Intn(200))
		if _, err := GreenLeftOneSidedBoundaryTrace(prob); err != nil {
			t.Errorf("span2 trial %d: %v", trial, err)
		}
	}
}

func TestGreenLeftOneSidedDeepCases(t *testing.T) {
	cases := []optParams{
		{S: 400, K: 40, R: 0.03, V: 0.2, Y: 0, E: 1},    // deep OTM put: all red
		{S: 10, K: 300, R: 0.03, V: 0.2, Y: 0, E: 1},    // deep ITM put: all green
		{S: 100, K: 100, R: 1e-4, V: 0.3, Y: 0.1, E: 2}, // boundary collapses fast
	}
	for i, p := range cases {
		prob := putProblemBOPM(p, 500)
		fast, _, err := SolveGreenLeftOneSided(prob, nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		naive, err := SolveGreenLeftOneSidedNaive(prob)
		if err != nil {
			t.Fatal(err)
		}
		// Deep-OTM true values sit below the FFT noise floor (eps * K);
		// compare with an absolute epsilon on that scale.
		if math.Abs(fast-naive) > 1e-10*(1+p.K) {
			t.Errorf("case %d: fast %.12g naive %.12g", i, fast, naive)
		}
	}
}

func TestGreenLeftOneSidedBaseCaseInvariance(t *testing.T) {
	p := optParams{S: 127.62, K: 130, R: 0.00163, V: 0.2, Y: 0.0163, E: 1}
	prob := putProblemBOPM(p, 700)
	var ref float64
	for i, base := range []int{1, 4, 8, 32, 128, 10000} {
		prob.BaseCase = base
		v, _, err := SolveGreenLeftOneSided(prob, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = v
			continue
		}
		if d := relDiff(v, ref); d > 1e-10 {
			t.Errorf("base %d: %.14g vs %.14g", base, v, ref)
		}
	}
}

func TestGreenLeftOneSidedSerialParallelAgree(t *testing.T) {
	prob := putProblemBOPM(optParams{S: 110, K: 120, R: 0.02, V: 0.3, Y: 0.01, E: 1}, 1024)
	vPar, _, err := SolveGreenLeftOneSided(prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := par.SetWorkers(1)
	vSer, _, err := SolveGreenLeftOneSided(prob, nil)
	par.SetWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	if vPar != vSer {
		t.Errorf("parallel %.17g != serial %.17g", vPar, vSer)
	}
}

func TestGreenLeftOneSidedSubquadratic(t *testing.T) {
	p := optParams{S: 127.62, K: 130, R: 0.00163, V: 0.2, Y: 0.0163, E: 1}
	prob := putProblemBOPM(p, 1<<13)
	var st Stats
	if _, _, err := SolveGreenLeftOneSided(prob, &st); err != nil {
		t.Fatal(err)
	}
	T := int64(prob.T)
	if st.NaiveCells.Load() > T*T/16 {
		t.Errorf("naive cells %d not subquadratic", st.NaiveCells.Load())
	}
	if st.FFTCalls.Load() == 0 {
		t.Error("no FFT calls on a large instance")
	}
}

func TestGreenLeftOneSidedValidation(t *testing.T) {
	good := func() *GreenLeftOneSided {
		return putProblemBOPM(optParams{S: 100, K: 100, R: 0.02, V: 0.2, Y: 0.02, E: 1}, 32)
	}
	for name, mutate := range map[string]func(*GreenLeftOneSided){
		"bad MinOff": func(p *GreenLeftOneSided) { p.Stencil.MinOff = -1 },
		"narrow row": func(p *GreenLeftOneSided) { p.Hi0 = p.T - 1 },
		"negative T": func(p *GreenLeftOneSided) { p.T = -1 },
		"nil Init":   func(p *GreenLeftOneSided) { p.Init = nil },
		"nil Fill":   func(p *GreenLeftOneSided) { p.Fill = nil },
		"big Bnd0":   func(p *GreenLeftOneSided) { p.Bnd0 = p.Hi0 + 1 },
	} {
		p := good()
		mutate(p)
		if _, _, err := SolveGreenLeftOneSided(p, nil); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestGreenLeftOneSidedTinyT(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for T := 1; T <= 10; T++ {
		for trial := 0; trial < 4; trial++ {
			prob := putProblemBOPM(randOptParams(rng), T)
			fast, _, err := SolveGreenLeftOneSided(prob, nil)
			if err != nil {
				t.Fatalf("T=%d: %v", T, err)
			}
			naive, err := SolveGreenLeftOneSidedNaive(prob)
			if err != nil {
				t.Fatal(err)
			}
			if d := relDiff(fast, naive); d > 1e-12 {
				t.Errorf("T=%d trial %d: fast %.12g naive %.12g", T, trial, fast, naive)
			}
		}
	}
}
