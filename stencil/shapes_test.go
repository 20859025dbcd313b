package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The paper's three instances through the public problem types: calls on
// lattices of span r as ObstacleRight (BOPM at r=1, TOPM at r=2), their
// puts as ObstacleLeftOneSided, and the BSM put as ObstacleLeft. The solves
// run in the engine's columns, so each is checked against a direct sweep in
// the problem's own columns (directRight, directLeft): a wrong column map
// cannot pass by being shared between Solve and SolveNaive.

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

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}

// spanLattice returns the weights of a lattice of span r, each step r
// binomial substeps of factor sqrt(x) = e^(V*sqrt(dt/r)) up or down, so its
// weights are disc*C(r,k)*q^k*(1-q)^(r-k) on offsets 0..r, and the asset
// price S*x^(c + r*(d-T)/2) of cell (d, c). When q falls outside (0, 1)
// some weight is not positive, and the weights are no lattice's.
func spanLattice(p optParams, T, r int) (w []float64, asset func(d, c int) float64) {
	dt := p.E / float64(T)
	lnx := 2 * p.V * math.Sqrt(dt/float64(r))
	sq := math.Exp(lnx / 2)
	q := (math.Exp((p.R-p.Y)*dt/float64(r)) - 1/sq) / (sq - 1/sq)
	disc := math.Exp(-p.R * dt)
	w = make([]float64, r+1)
	for k := range w {
		binom := 1.0
		for i := 0; i < k; i++ {
			binom = binom * float64(r-i) / float64(i+1)
		}
		w[k] = disc * binom * math.Pow(q, float64(k)) * math.Pow(1-q, float64(r-k))
	}
	asset = func(d, c int) float64 { return p.S * math.Exp((float64(c)+float64(r*(d-T))/2)*lnx) }
	return w, asset
}

// spanCall is the American call on a lattice of span r.
func spanCall(p optParams, T, r int) *ObstacleRight {
	w, asset := spanLattice(p, T, r)
	obstacle := func(d, c int) float64 { return asset(d, c) - p.K }
	bnd0 := -1
	for bnd0 < T*r && obstacle(0, bnd0+1) <= 0 {
		bnd0++
	}
	return &ObstacleRight{
		Stencil:  Linear{MinOffset: 0, Weights: w},
		Steps:    T,
		Hi0:      T * r,
		Init:     func(c int) float64 { return math.Max(0, obstacle(0, c)) },
		Obstacle: obstacle,
		Bnd0:     bnd0,
	}
}

// spanPut is the American put on a lattice of span r. Its exercise
// boundary never rises and drops at most r columns per step.
func spanPut(p optParams, T, r int) *ObstacleLeftOneSided {
	w, asset := spanLattice(p, T, r)
	obstacle := func(d, c int) float64 { return p.K - asset(d, c) }
	bnd0 := -1
	for bnd0 < T*r && obstacle(0, bnd0+1) > 0 {
		bnd0++
	}
	return &ObstacleLeftOneSided{
		Stencil:  Linear{MinOffset: 0, Weights: w},
		Steps:    T,
		Hi0:      T * r,
		Init:     func(c int) float64 { return math.Max(0, obstacle(0, c)) },
		Obstacle: obstacle,
		Bnd0:     bnd0,
		MaxDrop:  r,
	}
}

// bsmPut is the Black-Scholes-Merton American put of the paper's Section 4
// in dimensionless form, with lambda = dtau/ds^2 = 1/3 chosen to satisfy
// Theorem 4.3's positivity requirements, on columns [lo, lo+2T].
func bsmPut(p optParams, T, lo int) *ObstacleLeft {
	omega := 2 * p.R / (p.V * p.V)
	omegaD := 2 * (p.R - p.Y) / (p.V * p.V) // dividend-extended drift
	dtau := p.V * p.V * p.E / 2 / float64(T)
	ds := math.Sqrt(3 * dtau)
	a := dtau/(ds*ds) + (omegaD-1)*dtau/(2*ds) // weight on k+1
	b := dtau/(ds*ds) - (omegaD-1)*dtau/(2*ds) // weight on k-1
	c := 1 - omega*dtau - 2*dtau/(ds*ds)
	s0 := math.Log(p.S / p.K)
	obstacle := func(_, col int) float64 { return 1 - math.Exp(s0+float64(col-lo-T)*ds) }
	bnd0 := lo + min(max(int(math.Floor(float64(T)-s0/ds)), -1), 2*T)
	return &ObstacleLeft{
		Stencil:  Linear{MinOffset: -1, Weights: []float64{b, c, a}},
		Steps:    T,
		Lo0:      lo,
		Hi0:      lo + 2*T,
		Init:     func(col int) float64 { return math.Max(obstacle(0, col), 0) },
		Obstacle: obstacle,
		Bnd0:     bnd0,
	}
}

// directRight is the direct sweep of p in its own columns, over the whole
// initial row; it returns the apex (Steps, 0).
func directRight(p *ObstacleRight) float64 {
	w := p.Stencil.Weights
	r := len(w) - 1
	row := make([]float64, p.Hi0+1)
	for c := range row {
		row[c] = p.Init(c)
	}
	for d := 1; d <= p.Steps; d++ {
		for c := 0; c <= p.Hi0-d*r; c++ {
			var lin float64
			for i, wi := range w {
				lin += wi * row[c+i]
			}
			row[c] = math.Max(lin, p.Obstacle(d, c))
		}
	}
	return row[0]
}

// directLeft is the direct sweep of p in its own columns, cell i of a row
// at column Lo0+i; it returns the apex (Steps, Lo0+Steps).
func directLeft(p *ObstacleLeft) float64 {
	w, lo := p.Stencil.Weights, p.Lo0
	row, next := make([]float64, p.Hi0-lo+1), make([]float64, p.Hi0-lo+1)
	for i := range row {
		row[i] = p.Init(lo + i)
	}
	for d := 1; d <= p.Steps; d++ {
		for c := lo + d; c <= p.Hi0-d; c++ {
			i := c - lo
			lin := w[0]*row[i-1] + w[1]*row[i] + w[2]*row[i+1]
			next[i] = math.Max(lin, p.Obstacle(d, c))
		}
		row, next = next, row
	}
	return row[p.Steps]
}

// checkAgainstDirect fails t unless Solve and SolveNaive (when not nil)
// both match want, the direct sweep's apex, to 1e-10 relative.
func checkAgainstDirect(t *testing.T, name string, solve func(*Stats) (float64, error), naive func() (float64, error), want float64) {
	t.Helper()
	fast, err := solve(nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	slow := want
	if naive != nil {
		if slow, err = naive(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if relDiff(fast, want) > 1e-10 || relDiff(slow, want) > 1e-10 {
		t.Errorf("%s: Solve %.12g SolveNaive %.12g direct %.12g", name, fast, slow, want)
	}
}

// geometryFullT is the largest T at which the geometry tests also run
// SolveNaive and BoundaryTrace. Both are direct sweeps through the map
// Solve uses, which the smaller T cover; above it only Solve is checked
// against the direct sweep.
const geometryFullT = 333

// monotone checks a traced boundary against the paper's lemmas from depth
// 2 on (the first step leaves the payoff row, where the boundary may jump):
// it never moves right and moves left by at most one column per step. A
// boundary of lo(d)-1 or hi(d) marks a row with no cell on one side of it.
func monotone(trace []int, lo, hi func(d int) int) error {
	for d := 2; d < len(trace); d++ {
		prev := min(max(trace[d-1], lo(d)-1), hi(d))
		if b := trace[d]; b > prev || b < prev-1 {
			return fmt.Errorf("boundary %d at depth %d, %d at depth %d", trace[d-1], d-1, b, d)
		}
	}
	return nil
}

// callLemma is Corollaries 2.7 (BOPM) and A.6 (TOPM) on an ObstacleRight
// trace, the largest red column over the apex's cone.
func callLemma(p *ObstacleRight, trace []int) error {
	r := len(p.Stencil.Weights) - 1
	return monotone(trace, func(int) int { return 0 }, func(d int) int { return (p.Steps - d) * r })
}

// putLemma is Theorem 4.3 on an ObstacleLeft trace, the largest green
// column.
func putLemma(p *ObstacleLeft, trace []int) error {
	return monotone(trace, func(d int) int { return p.Lo0 + d }, func(d int) int { return p.Hi0 - d })
}

// TestObstacleRightCalls: BOPM (span 1) and TOPM (span 2) calls on random
// contracts match the direct sweep, and their boundaries keep the paper's
// structure (Corollaries 2.7 and A.6).
func TestObstacleRightCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		r := 1 + trial%2
		p := randOptParams(rng)
		prob := spanCall(p, 16+rng.Intn(500/r), r)
		name := fmt.Sprintf("trial %d (r=%d T=%d %+v)", trial, r, prob.Steps, p)
		checkAgainstDirect(t, name, prob.Solve, prob.SolveNaive, directRight(prob))
		trace, err := prob.BoundaryTrace()
		if err == nil {
			err = callLemma(prob, trace)
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestObstacleLeftBSM: BSM puts on random contracts match the direct sweep,
// and their boundaries keep Theorem 4.3's structure.
func TestObstacleLeftBSM(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		p := randOptParams(rng)
		prob := bsmPut(p, 16+rng.Intn(300), 0)
		name := fmt.Sprintf("trial %d (T=%d %+v)", trial, prob.Steps, p)
		checkAgainstDirect(t, name, prob.Solve, prob.SolveNaive, directLeft(prob))
		trace, err := prob.BoundaryTrace()
		if err == nil {
			err = putLemma(prob, trace)
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestObstacleRightGeometry covers ObstacleRight's map onto mirrored
// columns against the direct sweep in its own columns: spans 1 to 3,
// initial rows wider than the apex's cone, Bnd0 declared all green (-1),
// all red (Hi0) and past the cone, a dividend yield above the rate, and T
// from 0 to 2000. Init and Obstacle are evaluated only on the grid, and up
// to geometryFullT the traced boundary keeps the paper's structure.
func TestObstacleRightGeometry(t *testing.T) {
	atm := optParams{S: 100, K: 100, R: 0.05, V: 0.3, Y: 0.02, E: 1}
	rows := []struct {
		name  string
		p     optParams
		build func(*ObstacleRight)
	}{
		{"mixed", atm, func(*ObstacleRight) {}},
		// Cells right of the apex's cone exist but cannot reach it.
		{"wide row", atm, func(q *ObstacleRight) { q.Hi0 += 7 }},
		// Every initial cell declared red: the solver must classify the
		// payoff's green suffix itself on its first step.
		{"all red", atm, func(q *ObstacleRight) { q.Bnd0 = q.Hi0 }},
		{"red past the cone", atm, func(q *ObstacleRight) { q.Hi0 += 7; q.Bnd0 = q.Hi0 - 2 }},
		// The whole initial row is the exercise value, declared green.
		{"all green", optParams{S: 400, K: 10, R: 0.001, V: 0.1, Y: 0.5, E: 2}, func(q *ObstacleRight) {
			obstacle := q.Obstacle
			q.Init = func(col int) float64 { return obstacle(0, col) }
			q.Bnd0 = -1
		}},
		{"Y > R", optParams{S: 100, K: 90, R: 0.01, V: 0.25, Y: 0.08, E: 2}, func(*ObstacleRight) {}},
	}
	for _, T := range []int{0, 1, 2, 3, 64, 333, 2000} {
		for r := 1; r <= 3; r++ {
			for _, row := range rows {
				prob := spanCall(row.p, max(T, 1), r)
				prob.Steps = T
				row.build(prob)
				g := &gridCheck{steps: T, lo: func(int) int { return 0 }, hi: func(d int) int { return prob.Hi0 - d*r }}
				prob.Init, prob.Obstacle = g.init(prob.Init), g.obstacle(prob.Obstacle)
				name := fmt.Sprintf("%s T=%d r=%d", row.name, T, r)
				if T > geometryFullT {
					checkAgainstDirect(t, name, prob.Solve, nil, directRight(prob))
					g.report(t, name)
					continue
				}
				checkAgainstDirect(t, name, prob.Solve, prob.SolveNaive, directRight(prob))
				// The paper proves the lemma for spans 1 and 2; at span 3
				// the boundary may move left by up to r, which
				// BoundaryTrace itself checks.
				trace, err := prob.BoundaryTrace()
				if err == nil && r <= 2 {
					err = callLemma(prob, trace)
				}
				if err != nil {
					t.Errorf("%s: %v", name, err)
				}
				g.report(t, name)
			}
		}
	}
}

// TestObstacleLeftGeometry covers ObstacleLeft's map onto depth-shifted
// columns against the direct sweep in its own columns: initial rows
// starting left of, at and right of column 0, tiny and large T, rows
// declared all red or all green, and a dividend yield above the rate. Init
// and Obstacle are evaluated only on the grid, and up to geometryFullT the
// traced boundary keeps Theorem 4.3's structure.
func TestObstacleLeftGeometry(t *testing.T) {
	atm := optParams{S: 100, K: 100, R: 0.05, V: 0.3, Y: 0.02, E: 1}
	rows := []struct {
		name  string
		p     optParams
		build func(*ObstacleLeft)
	}{
		{"mixed", atm, func(*ObstacleLeft) {}},
		// Every initial cell declared red: the solver must classify the
		// payoff's green prefix itself on its first step.
		{"all red", atm, func(q *ObstacleLeft) { q.Bnd0 = q.Lo0 - 1 }},
		// The whole initial row is the exercise value, declared green past
		// the row end.
		{"all green", optParams{S: 20, K: 300, R: 0.05, V: 0.2, Y: 0, E: 0.5}, func(q *ObstacleLeft) {
			obstacle := q.Obstacle
			q.Init = func(col int) float64 { return obstacle(0, col) }
			q.Bnd0 = q.Hi0 + 5
		}},
		{"Y > R", optParams{S: 100, K: 110, R: 0.01, V: 0.25, Y: 0.08, E: 2}, func(*ObstacleLeft) {}},
	}
	for _, T := range []int{1, 2, 3, 64, 333, 2000} {
		for _, lo := range []int{0, -T, 17} {
			for _, row := range rows {
				prob := bsmPut(row.p, T, lo)
				row.build(prob)
				g := &gridCheck{steps: T, lo: func(d int) int { return lo + d }, hi: func(d int) int { return prob.Hi0 - d }}
				prob.Init, prob.Obstacle = g.init(prob.Init), g.obstacle(prob.Obstacle)
				name := fmt.Sprintf("%s T=%d Lo0=%d", row.name, T, lo)
				if T > geometryFullT {
					checkAgainstDirect(t, name, prob.Solve, nil, directLeft(prob))
					g.report(t, name)
					continue
				}
				checkAgainstDirect(t, name, prob.Solve, prob.SolveNaive, directLeft(prob))
				trace, err := prob.BoundaryTrace()
				if err == nil {
					err = putLemma(prob, trace)
				}
				if err != nil {
					t.Errorf("%s: %v", name, err)
				}
				g.report(t, name)
			}
		}
	}
}

// TestObstacleRightAllRed: with zero dividend yield an American call is
// never exercised early: the grid is all red after the first step, and the
// solve is one long linear evolution.
func TestObstacleRightAllRed(t *testing.T) {
	const T = 700
	prob := spanCall(optParams{S: 100, K: 100, R: 0.05, V: 0.3, Y: 0, E: 1}, T, 1)
	trace, err := prob.BoundaryTrace()
	if err != nil {
		t.Fatal(err)
	}
	if trace[1] != T-1 || trace[T] != 0 {
		t.Errorf("boundary %d at depth 1, %d at the apex; want all red (%d, 0)", trace[1], trace[T], T-1)
	}
	checkAgainstDirect(t, "all red", prob.Solve, prob.SolveNaive, directRight(prob))
}

// TestObstacleRightAllGreen: deep in the money with a large dividend
// yield, the call is exercised at once and the apex is the closed form.
func TestObstacleRightAllGreen(t *testing.T) {
	const T = 300
	p := optParams{S: 400, K: 10, R: 0.001, V: 0.1, Y: 0.5, E: 2}
	prob := spanCall(p, T, 1)
	checkAgainstDirect(t, "all green", prob.Solve, prob.SolveNaive, p.S-p.K)
	trace, err := prob.BoundaryTrace()
	if err != nil {
		t.Fatal(err)
	}
	if trace[T] != -1 {
		t.Errorf("apex boundary %d, want all green (-1)", trace[T])
	}
}

// TestObstacleLeftDeep: a BSM put far out of the money has an all-red
// cone; far in the money it is exercised at once, worth 1 - S/K.
func TestObstacleLeftDeep(t *testing.T) {
	otm := bsmPut(optParams{S: 300, K: 5, R: 0.05, V: 0.2, Y: 0, E: 0.5}, 400, 0)
	if otm.Bnd0 >= 0 {
		t.Fatalf("deep OTM: Bnd0=%d, want the boundary left of the cone", otm.Bnd0)
	}
	checkAgainstDirect(t, "deep OTM", otm.Solve, otm.SolveNaive, directLeft(otm))
	p := optParams{S: 10, K: 300, R: 0.05, V: 0.2, Y: 0, E: 0.5}
	itm := bsmPut(p, 400, 0)
	checkAgainstDirect(t, "deep ITM", itm.Solve, itm.SolveNaive, 1-p.S/p.K)
}

// TestObstacleRightDropsBySpan: a span-2 problem whose boundary moves two
// columns left per step, as ObstacleRight's doc allows. BoundaryTrace
// must accept it and return the boundary in the problem's own columns, down
// to -1 once the row turns all green.
func TestObstacleRightDropsBySpan(t *testing.T) {
	const T = 40
	p := &ObstacleRight{
		Stencil: Linear{Weights: []float64{0.3, 0.3, 0.3}},
		Steps:   T,
		Hi0:     2 * T,
		Bnd0:    2*T - 20,
	}
	p.Obstacle = func(d, col int) float64 {
		if col > p.Bnd0-2*d {
			return 1
		}
		return 0
	}
	p.Init = func(col int) float64 {
		if col <= p.Bnd0 {
			return 0.5 + 0.001*float64(col)
		}
		return p.Obstacle(0, col)
	}
	trace, err := p.BoundaryTrace()
	if err != nil {
		t.Fatal(err)
	}
	for d, b := range trace {
		if want := max(p.Bnd0-2*d, -1); b != want {
			t.Errorf("depth %d: boundary %d, want %d", d, b, want)
		}
	}
	fast, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := p.SolveNaive()
	if err != nil {
		t.Fatal(err)
	}
	if fast != naive {
		t.Errorf("Solve %.17g, SolveNaive %.17g", fast, naive)
	}
}

// TestObstacleValidation: a malformed problem is refused by all three
// solvers.
func TestObstacleValidation(t *testing.T) {
	call := func() *ObstacleRight {
		return spanCall(optParams{S: 100, K: 100, R: 0.02, V: 0.2, Y: 0.02, E: 1}, 32, 1)
	}
	for name, mutate := range map[string]func(*ObstacleRight){
		"bad MinOffset": func(p *ObstacleRight) { p.Stencil.MinOffset = 1 },
		"no weights":    func(p *ObstacleRight) { p.Stencil.Weights = nil },
		"narrow row":    func(p *ObstacleRight) { p.Hi0 = p.Steps - 1 },
		"negative T":    func(p *ObstacleRight) { p.Steps = -1 },
		"nil Init":      func(p *ObstacleRight) { p.Init = nil },
		"nil Obstacle":  func(p *ObstacleRight) { p.Obstacle = nil },
		"Bnd0 too big":  func(p *ObstacleRight) { p.Bnd0 = p.Hi0 + 1 },
	} {
		p := call()
		mutate(p)
		refused(t, "ObstacleRight "+name, p.Solve, p.SolveNaive, p.BoundaryTrace)
	}
	put := func() *ObstacleLeft {
		return bsmPut(optParams{S: 100, K: 100, R: 0.02, V: 0.2, Y: 0, E: 1}, 32, 0)
	}
	for name, mutate := range map[string]func(*ObstacleLeft){
		"bad width":    func(p *ObstacleLeft) { p.Hi0++ },
		"bad stencil":  func(p *ObstacleLeft) { p.Stencil.MinOffset = 0 },
		"negative T":   func(p *ObstacleLeft) { p.Steps, p.Hi0 = -1, p.Lo0-2 },
		"nil Init":     func(p *ObstacleLeft) { p.Init = nil },
		"nil Obstacle": func(p *ObstacleLeft) { p.Obstacle = nil },
	} {
		p := put()
		mutate(p)
		refused(t, "ObstacleLeft "+name, p.Solve, p.SolveNaive, p.BoundaryTrace)
	}
}

// refused fails t unless all three solvers return an error.
func refused(t *testing.T, name string, solve func(*Stats) (float64, error), naive func() (float64, error), trace func() ([]int, error)) {
	t.Helper()
	_, e1 := solve(nil)
	_, e2 := naive()
	_, e3 := trace()
	if e1 == nil || e2 == nil || e3 == nil {
		t.Errorf("%s: accepted (Solve %v, SolveNaive %v, BoundaryTrace %v)", name, e1, e2, e3)
	}
}
