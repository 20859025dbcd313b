// Package fbstencil implements the paper's core contribution: fast solvers
// for free-boundary ("obstacle") nonlinear 1D stencil computations.
//
// A nonlinear stencil in this class updates a cell as
//
//	value(d+1, j) = max( sum_o w[o]*value(d, j+o),  Green(d+1, j) )
//
// where Green is a closed-form function of the cell coordinates (the exercise
// value in option pricing). Every row then splits into a contiguous *red*
// region, where the linear combination wins, and a contiguous *green* region,
// where the closed form wins; the red/green boundary column moves by at most
// one cell per step and only in one direction (the paper's Corollary 2.7 for
// BOPM, Corollary A.6 for TOPM, Theorem 4.3 for BSM).
//
// The solvers exploit that structure: large all-red trapezoids are advanced
// many steps at once with one FFT-accelerated linear evolution
// (linstencil.EvolveCone), while a geometrically shrinking band around the
// unknown boundary is resolved recursively, giving O(T log^2 T) work and O(T)
// span on a grid of size Theta(T) evolved for T steps.
//
// Two geometries are supported, matching the paper's three models:
//
//   - GreenRight (Section 2.3/3): one-sided stencil with offsets 0..r, green
//     region on the right; used by BOPM (r=1) and TOPM (r=2) American calls.
//   - GreenLeft centered (Section 4.3): 3-point stencil with offsets -1..1,
//     green region on the left; the BSM American put. It is solved in
//     depth-shifted columns, where it becomes a one-sided green-left problem
//     (GreenLeftOneSided, the solver the lattice puts share).
package fbstencil

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/scratch"
)

// ErrNonFinite is wrapped by the error a solve returns when its result is
// NaN or Inf: the surface-health gate in the serving layer matches on it to
// pin the last-good quote instead of publishing poison.
var ErrNonFinite = errors.New("non-finite solve result")

// canceled is the sentinel carried by the panic that unwinds a canceled
// solve. The recursion is deep and forks through par.Do, so unwinding by
// panic — recovered at the Solve* entry point, never escaping the package —
// is what keeps the cancellation checkpoints down to one branch instead of
// threading an error return through every level. Scratch buffers in flight
// are abandoned to the GC rather than returned to their pools; that is
// explicitly safe (see the buffer-discipline note above: correctness never
// depends on a Put succeeding), and par's joins keep the spawn budget paired
// on the panic path.
type canceled struct{ err error }

// checkCancel polls the problem's cancellation hook (nil means
// non-cancelable) and unwinds the solve when it reports an error.
func checkCancel(cancel func() error) {
	if cancel == nil {
		return
	}
	if err := cancel(); err != nil {
		panic(canceled{err})
	}
}

// recoverCancel converts the cancellation sentinel back into an ordinary
// error at a Solve* entry point. A sentinel raised inside a par fork arrives
// wrapped in a *par.PanicError; both shapes are handled. Any other panic is
// genuine and re-raised.
func recoverCancel(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if pe, ok := r.(*par.PanicError); ok {
		if c, ok := pe.Value.(canceled); ok {
			*err = c.err
			return
		}
	}
	if c, ok := r.(canceled); ok {
		*err = c.err
		return
	}
	panic(r)
}

// checkFinite is the solver-level health guard: a solve whose apex value is
// NaN or Inf returns an ErrNonFinite-wrapped error instead of the value.
func checkFinite(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("fbstencil: %w (apex=%v)", ErrNonFinite, v)
	}
	return nil
}

// Buffer discipline: every row segment, staging window, and zone buffer the
// solvers churn through comes from internal/scratch's size-classed pools and
// is returned there the moment its last reader is done — the recursion used
// to make-and-drop a fresh slice at every level, which at T = 10^5+ made the
// allocator and GC a measurable slice of the solve. The ownership rules are:
//
//   - EvolveCone results, zone outputs, and naiveStep rows are owned by their
//     caller, which recycles them after merging them into the next segment;
//   - functions never recycle their *input* segment — inputs may be
//     subslices of a buffer another parallel branch is still reading (see
//     halfStep) — except for exactFirstStep, which by contract consumes it;
//   - buffers whose front gets trimmed (the boundary ate a prefix) lose
//     their power-of-two capacity and are dropped by scratch.PutFloats
//     automatically; correctness never depends on a Put succeeding.

// DefaultBaseCase is the recursion cutoff height below which trapezoids are
// solved by the direct loop. The paper reports a base case of 8 steps
// performing best; our default is close and can be overridden per problem.
const DefaultBaseCase = 8

// parCutoff is the trapezoid height below which the FFT half and the
// boundary-side recursion run sequentially instead of through par.Do: under
// ~this much work the fork-join costs more — goroutine spawn, plus the
// closure and capture-box allocations the fork forces on every call — than
// the parallelism returns. The deep, numerous small trapezoids all take the
// allocation-free serial path; the few large ones near the top of the
// recursion keep the paper's parallel span.
const parCutoff = 64

// Stats collects work counters from a solve. Counters are updated atomically
// and may be shared between concurrent solves. A nil *Stats disables
// collection.
type Stats struct {
	FFTCalls   atomic.Int64 // linstencil.EvolveCone invocations
	FFTCells   atomic.Int64 // cells produced by FFT evolutions
	NaiveCells atomic.Int64 // cells computed by direct max-loops
	Trapezoids atomic.Int64 // recursive trapezoid solves (including base cases)
}

func (s *Stats) addFFT(cells int) {
	if s != nil {
		s.FFTCalls.Add(1)
		s.FFTCells.Add(int64(cells))
	}
}

func (s *Stats) addNaive(cells int) {
	if s != nil {
		s.NaiveCells.Add(int64(cells))
	}
}

func (s *Stats) addTrap() {
	if s != nil {
		s.Trapezoids.Add(1)
	}
}

// GreenFunc is the closed-form obstacle value of cell (depth, col). depth 0
// is the initial row; the solve advances to depth T.
type GreenFunc func(depth, col int) float64

// ---------------------------------------------------------------------------
// Green-right, one-sided stencils (BOPM and TOPM American calls).
// ---------------------------------------------------------------------------

// GreenRight describes a free-boundary problem whose stencil has offsets
// 0..r (deps point right at the previous depth) and whose green region lies
// to the right of the red region in every row.
//
// Grid geometry: depth 0 holds the initial row on columns [0, Hi0]; at depth
// d the valid columns are [0, Hi0-d*r]. The answer is the value of the apex
// cell (T, 0), which requires Hi0 >= T*r.
type GreenRight struct {
	Stencil linstencil.Stencil // MinOff must be 0
	T       int                // number of steps
	Hi0     int                // last column of the initial row
	Init    func(col int) float64
	Green   GreenFunc
	// Bnd0 is the largest red column of the initial row (-1 if the whole
	// row is green). Cells right of Bnd0 must satisfy Init(col) ==
	// Green(0, col).
	Bnd0     int
	BaseCase int // recursion cutoff; 0 means DefaultBaseCase
	// Cancel, when non-nil, is polled at trapezoid granularity; the first
	// non-nil error it returns unwinds the solve, and SolveGreenRight
	// returns that error. Typically ctx.Err of a request context.
	Cancel func() error
}

func (p *GreenRight) validate() error {
	if err := p.Stencil.Validate(); err != nil {
		return err
	}
	if p.Stencil.MinOff != 0 {
		return fmt.Errorf("fbstencil: GreenRight requires MinOff 0, got %d", p.Stencil.MinOff)
	}
	if p.Stencil.Span() < 1 {
		return fmt.Errorf("fbstencil: stencil must have span >= 1")
	}
	if p.T < 0 {
		return fmt.Errorf("fbstencil: negative step count %d", p.T)
	}
	if p.Hi0 < p.T*p.Stencil.Span() {
		return fmt.Errorf("fbstencil: initial row too narrow: Hi0=%d < T*r=%d", p.Hi0, p.T*p.Stencil.Span())
	}
	if p.Init == nil || p.Green == nil {
		return fmt.Errorf("fbstencil: Init and Green must be set")
	}
	if p.Bnd0 > p.Hi0 {
		return fmt.Errorf("fbstencil: Bnd0=%d beyond row end %d", p.Bnd0, p.Hi0)
	}
	return nil
}

type grEngine struct {
	s      linstencil.Stencil
	r      int // span = max offset
	hi0    int
	green  GreenFunc
	base   int
	stats  *Stats
	cancel func() error
}

// hi returns the last valid column at the given depth.
func (e *grEngine) hi(depth int) int { return e.hi0 - depth*e.r }

// SolveGreenRight runs the fast solver and returns the apex value (depth T,
// column 0) together with the red/green boundary column of the final row
// (-1 when the final row is entirely green). When p.Cancel reports an error
// the solve stops within roughly one trapezoid of work and returns it; a
// non-finite apex returns an ErrNonFinite-wrapped error.
func SolveGreenRight(p *GreenRight, st *Stats) (price float64, boundary int, err error) {
	if err := p.validate(); err != nil {
		return 0, 0, err
	}
	defer recoverCancel(&err)
	e := &grEngine{s: p.Stencil, r: p.Stencil.Span(), hi0: p.Hi0, green: p.Green, base: p.BaseCase, stats: st, cancel: p.Cancel}
	if e.base <= 0 {
		e.base = DefaultBaseCase
	}

	bnd := min(p.Bnd0, p.Hi0)
	var seg []float64 // red values, columns [0, bnd]
	if bnd >= 0 {
		seg = scratch.Floats(bnd + 1)
		for j := range seg {
			seg[j] = p.Init(j)
		}
	}
	d := 0
	if p.T >= 1 {
		// The "boundary never moves right" guarantee (Cor. 2.7/A.6) only
		// covers interior rows: on the initial row "red" means
		// 0 >= exercise value, and with R > Y the red region genuinely
		// widens once at depth 1 (Lemmas 2.3/2.4 need rows with real
		// children). One exact full-width step establishes the true
		// boundary; monotonicity holds from here on.
		seg, bnd = e.exactFirstStep(seg, bnd)
		d = 1
	}
	for d < p.T {
		checkCancel(e.cancel)
		if bnd < 0 {
			// The whole row is green; since the boundary never moves right,
			// every later row (and the apex) is green too. seg here is at
			// most a zero-length stub, but its pooled backing array can be
			// row-sized.
			scratch.PutFloats(seg)
			v := p.Green(p.T, 0)
			return v, -1, checkFinite(v)
		}
		remaining := p.T - d
		old := seg
		h := min((bnd+1)/e.r, remaining)
		if h >= e.base {
			seg, bnd = e.solveTrap(seg, 0, bnd, d, h)
			d += h
		} else {
			// Red strip too short for a trapezoid (or nearly done): one
			// direct step. The strip has fewer than r*base red cells, so
			// this is O(1) per step.
			seg, bnd = e.naiveStep(seg, 0, bnd, d)
			d++
		}
		scratch.PutFloats(old) // both paths return fresh rows, never aliases
	}
	if bnd < 0 {
		scratch.PutFloats(seg)
		v := p.Green(p.T, 0)
		return v, -1, checkFinite(v)
	}
	apex := seg[0]
	scratch.PutFloats(seg)
	return apex, bnd, checkFinite(apex)
}

// exactFirstStep advances the initial row to depth 1 across the full cone
// width, classifying every cell, and returns the depth-1 red prefix and its
// exact boundary. Cost O(Hi0), paid once per solve. It consumes (recycles)
// its input segment.
func (e *grEngine) exactFirstStep(seg []float64, bnd int) ([]float64, int) {
	defer scratch.PutFloats(seg)
	read := e.readRow(seg, 0, bnd, 0)
	hi1 := e.hi(1)
	if hi1 < 0 {
		return nil, -1
	}
	vals := scratch.Floats(hi1 + 1)
	red := make([]bool, hi1+1)
	par.For(hi1+1, 512, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			var lin float64
			for i, w := range e.s.W {
				lin += w * read(j+i)
			}
			g := e.green(1, j)
			if lin >= g {
				vals[j] = lin
				red[j] = true
			} else {
				vals[j] = g
			}
		}
	})
	e.stats.addNaive(hi1 + 1)
	newBnd := -1
	for j := hi1; j >= 0; j-- {
		if red[j] {
			newBnd = j
			break
		}
	}
	return vals[:newBnd+1], newBnd
}

// readRow returns an accessor for a row at the given depth whose red values
// [c0, bnd] are stored in seg; anything right of bnd is green closed form.
func (e *grEngine) readRow(seg []float64, c0, bnd, depth int) func(col int) float64 {
	return func(col int) float64 {
		if col <= bnd {
			return seg[col-c0]
		}
		return e.green(depth, col)
	}
}

// at is readRow without the closure: naiveStep runs once per direct step, and
// a per-call closure allocation there is pure overhead.
func (e *grEngine) at(seg []float64, c0, bnd, depth, col int) float64 {
	if col <= bnd {
		return seg[col-c0]
	}
	return e.green(depth, col)
}

// naiveStep advances the red segment [c0, bnd] at depth d by one step,
// returning the red segment at depth d+1 (still starting at c0) and the new
// boundary. The candidate red region never extends beyond min(bnd, hi(d+1)).
func (e *grEngine) naiveStep(seg []float64, c0, bnd, d int) ([]float64, int) {
	cap1 := min(bnd, e.hi(d+1))
	if cap1 < c0 {
		return nil, c0 - 1
	}
	return e.stepInto(scratch.Floats(cap1-c0+1), seg, c0, bnd, d)
}

// stepInto is naiveStep writing the new row into dst, which must hold at
// least min(bnd, hi(d+1))-c0+1 cells.
func (e *grEngine) stepInto(dst, seg []float64, c0, bnd, d int) ([]float64, int) {
	cap1 := min(bnd, e.hi(d+1))
	if cap1 < c0 {
		return dst[:0], c0 - 1
	}
	next := dst[:cap1-c0+1]
	newBnd := c0 - 1
	for j := c0; j <= cap1; j++ {
		var lin float64
		for i, w := range e.s.W {
			lin += w * e.at(seg, c0, bnd, d, j+i)
		}
		g := e.green(d+1, j)
		if lin >= g {
			next[j-c0] = lin
			newBnd = j
		} else {
			next[j-c0] = g
		}
	}
	e.stats.addNaive(cap1 - c0 + 1)
	// Red cells are a prefix by Cor. 2.7/A.6; trim storage to it.
	if newBnd < cap1 {
		next = next[:max(newBnd-c0+1, 0)]
	}
	return next, newBnd
}

// naiveBlock advances the red segment h steps with the direct loop. The
// input segment is the caller's (possibly a shared subslice). Rows never
// widen, so two buffers sized for the first step ping-pong for the rest;
// the one not returned goes back to the pool.
func (e *grEngine) naiveBlock(seg []float64, c0, bnd, d, h int) ([]float64, int) {
	n := min(bnd, e.hi(d+1)) - c0 + 1
	if n <= 0 {
		return nil, c0 - 1
	}
	cur := scratch.Floats(n)
	spare := scratch.Floats(n)
	for t := 0; t < h; t++ {
		seg, bnd = e.stepInto(cur, seg, c0, bnd, d+t)
		if bnd < c0 {
			scratch.PutFloats(cur)
			scratch.PutFloats(spare)
			return nil, bnd
		}
		cur, spare = spare, cur
	}
	scratch.PutFloats(cur)
	return seg, bnd
}

// solveTrap solves one trapezoid: given the red values seg on [c0, bnd] at
// depth d with bnd-c0+1 >= r*h, it returns the red values [c0, newBnd] and
// newBnd at depth d+h. The FFT half and the boundary-side recursion run in
// parallel, matching the paper's span analysis (Theorem 2.8).
func (e *grEngine) solveTrap(seg []float64, c0, bnd, d, h int) ([]float64, int) {
	checkCancel(e.cancel)
	e.stats.addTrap()
	if h <= e.base {
		return e.naiveBlock(seg, c0, bnd, d, h)
	}
	h1 := (h + 1) / 2
	h2 := h - h1

	mid, midBnd := e.halfStep(seg, c0, bnd, d, h1)
	if midBnd < c0 {
		return nil, midBnd
	}
	var out []float64
	var outBnd int
	// Defensive: theory guarantees midBnd >= bnd-h1, so the invariant
	// (red count >= r*h2) holds; fall back to the always-correct direct
	// loop if floating-point ties ever break it.
	if midBnd-c0+1 < e.r*h2 {
		out, outBnd = e.naiveBlock(mid, c0, midBnd, d+h1, h2)
	} else {
		out, outBnd = e.halfStep(mid, c0, midBnd, d+h1, h2)
	}
	scratch.PutFloats(mid)
	return out, outBnd
}

// halfStep advances the red segment [c0, bnd] at depth d by k steps, where
// the caller guarantees bnd-c0+1 >= r*k: the columns [c0, bnd-r*k] come from
// one FFT evolution (they are guaranteed red and their dependency cones are
// all red), the rest from a recursive trapezoid of height k anchored at the
// boundary. Below parCutoff the two halves run sequentially; above it they
// fork, matching the paper's span analysis (Theorem 2.8).
func (e *grEngine) halfStep(seg []float64, c0, bnd, d, k int) ([]float64, int) {
	cut := bnd - e.r*k // last FFT-exact column at depth d+k
	var left []float64
	var right []float64
	var rightBnd int
	if k <= parCutoff {
		if cut >= c0 {
			left, _ = linstencil.EvolveCone(seg[:bnd-c0+1], e.s, k)
			e.stats.addFFT(len(left))
		}
		right, rightBnd = e.solveTrap(seg[cut+1-c0:], cut+1, bnd, d, k)
	} else {
		left, right, rightBnd = e.halfStepPar(seg, c0, bnd, d, k, cut)
	}
	if rightBnd <= cut {
		// Boundary consumed the whole recursive part; red region is just
		// the FFT prefix (possibly trimmed if the boundary moved past cut,
		// which theory forbids — keep the exact cells we have).
		scratch.PutFloats(right) // at most a zero-length stub
		if cut < c0 {
			scratch.PutFloats(left)
			return nil, c0 - 1
		}
		return left, cut
	}
	merged := scratch.Floats(rightBnd - c0 + 1)
	copy(merged, left)
	copy(merged[cut+1-c0:], right)
	scratch.PutFloats(left)
	scratch.PutFloats(right)
	return merged, rightBnd
}

// halfStepPar is halfStep's fork: isolated in its own function so the serial
// path never pays for the closures' capture boxes.
func (e *grEngine) halfStepPar(seg []float64, c0, bnd, d, k, cut int) (left, right []float64, rightBnd int) {
	par.Do(
		func() {
			if cut >= c0 {
				left, _ = linstencil.EvolveCone(seg[:bnd-c0+1], e.s, k)
				e.stats.addFFT(len(left))
			}
		},
		func() {
			right, rightBnd = e.solveTrap(seg[cut+1-c0:], cut+1, bnd, d, k)
		},
	)
	return left, right, rightBnd
}

// ---------------------------------------------------------------------------
// Green-left, centered stencils (BSM American put).
// ---------------------------------------------------------------------------

// GreenLeft describes a free-boundary problem with a 3-point centered stencil
// (offsets -1, 0, +1) whose green region lies to the left of the red region,
// and whose boundary moves left by at most one column per step (the paper's
// Theorem 4.3). Green cells must equal Green exactly — this is what lets the
// solver extend any window leftward with closed-form values.
//
// Grid geometry: depth 0 holds the initial row on columns [Lo0, Hi0]; at
// depth d the valid columns are [Lo0+d, Hi0-d]. The answer is the apex cell
// (T, apex) with apex = Lo0+T = Hi0-T, so Hi0-Lo0 must equal 2*T.
//
// It is solved in depth-shifted columns c' = c-Lo0-d. There the stencil is
// one-sided (offsets 0..2 on columns [0, 2T-2d]) and the boundary's unit
// leftward move is a drop of at most two, which makes it a
// GreenLeftOneSided instance.
type GreenLeft struct {
	Stencil  linstencil.Stencil // MinOff must be -1, span 2
	T        int
	Lo0, Hi0 int
	Init     func(col int) float64
	Green    GreenFunc
	// Bnd0 is the largest green column of the initial row (Lo0-1 if the
	// whole row is red, >= Hi0 if entirely green).
	Bnd0     int
	BaseCase int
	// Cancel, when non-nil, is polled at trapezoid granularity; see
	// GreenRight.Cancel.
	Cancel func() error
}

func (p *GreenLeft) validate() error {
	if err := p.Stencil.Validate(); err != nil {
		return err
	}
	if p.Stencil.MinOff != -1 || p.Stencil.Span() != 2 {
		return fmt.Errorf("fbstencil: GreenLeft requires a centered 3-point stencil (MinOff=-1, span=2)")
	}
	if p.T < 0 {
		return fmt.Errorf("fbstencil: negative step count %d", p.T)
	}
	if p.Hi0-p.Lo0 != 2*p.T {
		return fmt.Errorf("fbstencil: row width %d must be exactly 2*T=%d", p.Hi0-p.Lo0, 2*p.T)
	}
	if p.Init == nil || p.Green == nil {
		return fmt.Errorf("fbstencil: Init and Green must be set")
	}
	return nil
}

// SolveGreenLeft runs the fast solver on the depth-shifted problem and
// returns the apex value (depth T, column Lo0+T) and the final boundary
// column. Cancellation and health semantics match SolveGreenRight.
func SolveGreenLeft(p *GreenLeft, st *Stats) (float64, int, error) {
	if err := p.validate(); err != nil {
		return 0, 0, err
	}
	lo, init, green := p.Lo0, p.Init, p.Green
	v, bnd, err := SolveGreenLeftOneSided(&GreenLeftOneSided{
		Stencil: linstencil.Stencil{MinOff: 0, W: p.Stencil.W},
		T:       p.T,
		Hi0:     p.Hi0 - lo,
		Init:    func(c int) float64 { return init(c + lo) },
		Green:   func(d, c int) float64 { return green(d, c+lo+d) },
		// An all-green row may carry any Bnd0 >= Hi0; the one-sided
		// problem only accepts up to its row end.
		Bnd0:     min(max(p.Bnd0, lo-1), p.Hi0) - lo,
		BaseCase: p.BaseCase,
		MaxDrop:  2,
		Cancel:   p.Cancel,
	}, st)
	return v, bnd + lo + p.T, err
}
