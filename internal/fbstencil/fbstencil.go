// Package fbstencil implements the paper's core contribution: fast solvers
// for free-boundary ("obstacle") nonlinear 1D stencil computations.
//
// A nonlinear stencil in this class updates a cell as
//
//	value(d+1, j) = max( sum_o w[o]*value(d, j+o),  Green(d+1, j) )
//
// where Green is a closed-form function of the cell coordinates (the exercise
// value in option pricing). The engine reads it a row at a time, through a
// FillFunc; the pricing models read it out of a table computed once per
// solve. Every row then splits into a contiguous *red* region, where the
// linear combination wins, and a contiguous *green* region, where the closed
// form wins; the red/green boundary column moves by at most one cell per
// step and only in one direction (the paper's Corollary 2.7 for BOPM,
// Corollary A.6 for TOPM, Theorem 4.3 for BSM).
//
// The solver exploits that structure: large all-red trapezoids are advanced
// many steps at once with one FFT-accelerated linear evolution
// (linstencil.EvolveCone), while a geometrically shrinking band around the
// unknown boundary is resolved recursively, giving O(T log^2 T) work and O(T)
// span on a grid of size Theta(T) evolved for T steps. The recursion ends in
// one direct step, used wherever a band is too thin to split: linstencil.Step
// on the window, one obstacle-row fill, an elementwise max and a boundary
// scan.
//
// There is one engine, SolveGreenLeftOneSided: a one-sided stencil (offsets
// 0..r) whose green region lies on the left. The pricing models build its
// problems directly. The BOPM and TOPM American puts are instances as they
// stand, and the lattice calls are priced as the puts of their swapped
// contracts (put-call symmetry). The BSM American put (Section 4.3, a
// centered 3-point stencil) becomes one in depth-shifted columns c' = c - d,
// with offsets 0..2.
//
// Two adapters serve the stencil package and the tests; each wraps its
// per-cell obstacle in a row fill:
//
//   - SolveGreenRight (behind stencil.ObstacleRight): offsets 0..r with the
//     green region on the right. In mirrored columns c' = (T-d)*r - c the
//     green region lies on the left and the stencil keeps offsets 0..r
//     with reversed weights.
//   - SolveGreenLeft (behind stencil.ObstacleLeft): a centered stencil with
//     the green region on the left, in depth-shifted columns.
package fbstencil

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/par"
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
//   - EvolveCone results, zone outputs, and the red cells a direct step
//     copies out are owned by their caller, which recycles them after
//     merging them into the next segment;
//   - a direct step runs in place on one buffer of its own that also holds
//     its obstacle row, so a base-case zone takes one buffer for all its
//     steps;
//   - functions never recycle or write their *input* window — inputs may be
//     subslices of a buffer another parallel branch is still reading (see
//     zoneSplit) — except for direct, which by contract consumes its
//     segment;
//   - buffers whose front gets trimmed (the boundary ate a prefix) lose
//     their power-of-two capacity and are dropped by scratch.PutFloats
//     automatically; correctness never depends on a Put succeeding.

// DefaultBaseCase is the recursion cutoff height below which trapezoids are
// solved by direct steps. The paper reports a base case of 8 steps
// performing best; our default is close and can be overridden per problem.
const DefaultBaseCase = 8

// parCutoff is the zone height at or below which the FFT strip and the
// boundary subzone run sequentially instead of through par.Do: under
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
	NaiveCells atomic.Int64 // cells computed by direct steps
	Trapezoids atomic.Int64 // recursive trapezoid solves (including base cases)

	// rec, set by Record, receives the schedule of the solves counted here.
	rec func(Event)
}

// EventKind names one kind of step in a solve's schedule.
type EventKind uint8

const (
	// EventFill writes Dst from the problem's initial row or its obstacle
	// row fill: the initial row, the green cells at or left of a boundary,
	// or a direct step's obstacle row. Virtual columns left of 0 are filled
	// with zeros.
	EventFill EventKind = iota
	// EventCopy copies Src into Dst.
	EventCopy
	// EventFFT evolves Src by Steps steps of W with one FFT; Dst holds the
	// len(Src)-(len(W)-1)*Steps exact outputs.
	EventFFT
	// EventSweep is a direct step's update of len(Dst) cells: a baseline
	// sweep's (package sweep) or one of the fast solver's. Cell j reads
	// Src[j .. j+len(W)-1] and stores Dst[j], the max of that sum and the
	// cell's obstacle. The obstacle comes from a row filled beforehand: the
	// sweep's exercise chunk, or the EventFill the fast solver reports just
	// before the step. Dst may start at Src[0].
	EventSweep
	// EventAlloc gives Dst fresh memory without touching it; later steps
	// write its cells in place.
	EventAlloc
)

// Event is one step of a solve's schedule. Src and Dst are the solver's own
// buffers: a replay can follow every value from the step that wrote it to
// the steps that read it. They are valid only during the callback.
type Event struct {
	Kind     EventKind
	Src, Dst []float64
	Steps    int       // EventFFT: steps evolved
	W        []float64 // stencil weights of EventFFT and EventSweep
	// InPlace marks a step that writes cells of a buffer earlier steps
	// already wrote or allocated (a direct step's window and obstacle row, a
	// sweep's row); otherwise Dst is memory the step writes fresh.
	InPlace bool
}

// Record makes every solve st is passed to report its schedule to rec, in
// order, and run serially so that the order is deterministic; the counters
// are unchanged, since they do not depend on the schedule. rec == nil stops
// recording. A recording Stats must serve one solve at a time.
func Record(st *Stats, rec func(Event)) { st.rec = rec }

func (s *Stats) recording() bool { return s != nil && s.rec != nil }

// record reports ev to the recorder. It stays out of line so that
// addDirect, called once per base-case step, inlines.
//
//go:noinline
func (s *Stats) record(ev Event) {
	if s.recording() {
		s.rec(ev)
	}
}

func (s *Stats) addFFT(src, out []float64, steps int, w []float64) {
	if s != nil {
		s.FFTCalls.Add(1)
		s.FFTCells.Add(int64(len(out)))
		s.record(Event{Kind: EventFFT, Src: src, Dst: out, Steps: steps, W: w})
	}
}

// addDirect counts the len(ev.Dst) cells of a direct step (an EventSweep)
// and records it.
func (s *Stats) addDirect(ev Event) {
	if s != nil {
		s.NaiveCells.Add(int64(len(ev.Dst)))
		s.record(ev)
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

// FillFunc writes the obstacle values of cells (depth, lo..hi) into
// out[0..hi-lo]: one row of a GreenFunc at a time. The engine and the
// baseline sweeps (package sweep) read the obstacle through it.
type FillFunc func(depth, lo, hi int, out []float64)

// TableFill returns the fill that copies cell (depth, col) from
// tab[col+depth].
func TableFill(tab []float64) FillFunc {
	return func(depth, lo, hi int, out []float64) { copy(out, tab[lo+depth:hi+depth+1]) }
}

// ---------------------------------------------------------------------------
// Green-right, one-sided stencils (the stencil.ObstacleRight adapter).
// ---------------------------------------------------------------------------

// GreenRight describes a free-boundary problem whose stencil has offsets
// 0..r (deps point right at the previous depth) and whose green region lies
// to the right of the red region in every row. After the first step the
// boundary (the largest red column) never moves right and moves left by at
// most r columns per step; American calls on the binomial and trinomial
// trees move at most one (Corollaries 2.7 and A.6).
//
// Grid geometry: depth 0 holds the initial row on columns [0, Hi0]; at depth
// d the valid columns are [0, Hi0-d*r]. The answer is the value of the apex
// cell (T, 0), which requires Hi0 >= T*r. Init and Green are only evaluated
// on that grid.
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
	// Cancel, when non-nil, is polled at trapezoid granularity; see
	// GreenLeftOneSided.Cancel.
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

// SolveGreenRight solves p as a GreenLeftOneSided problem in mirrored
// columns c' = (T-d)*r - c. The stencil keeps offsets 0..r with reversed
// weights, and a boundary that never moves right and moves left by at most
// r becomes a green boundary that never rises and drops by at most r. Only
// the apex's cone, columns [0, T*r] of the initial row, is solved. It returns
// the apex value and the largest red column of the final row (0, or -1 when
// the apex is green). Cancellation and health semantics match
// SolveGreenLeftOneSided.
func SolveGreenRight(p *GreenRight, st *Stats) (float64, int, error) {
	if err := p.validate(); err != nil {
		return 0, 0, err
	}
	T, r, init, green := p.T, p.Stencil.Span(), p.Init, p.Green
	hi := T * r
	w := make([]float64, r+1)
	for i, wi := range p.Stencil.W {
		w[r-i] = wi
	}
	v, b, err := SolveGreenLeftOneSided(&GreenLeftOneSided{
		Stencil: linstencil.Stencil{MinOff: 0, W: w},
		T:       T,
		Hi0:     hi,
		Init:    func(c int) float64 { return init(hi - c) },
		Fill: func(d, c, _ int, out []float64) {
			for i := range out {
				out[i] = green(d, (T-d)*r-c-i)
			}
		},
		Bnd0:     hi - min(p.Bnd0, hi) - 1,
		BaseCase: p.BaseCase,
		MaxDrop:  r,
		Cancel:   p.Cancel,
	}, st)
	return v, max(-b-1, -1), err
}

// ---------------------------------------------------------------------------
// Green-left, centered stencils (BSM American put).
// ---------------------------------------------------------------------------

// GreenLeft describes a free-boundary problem with a 3-point centered stencil
// (offsets -1, 0, +1) whose green region lies to the left of the red region,
// and whose boundary moves left by at most one column per step (the paper's
// Theorem 4.3). Green cells must equal Green exactly — this is what lets the
// solver extend any window leftward with obstacle values.
//
// Grid geometry: depth 0 holds the initial row on columns [Lo0, Hi0]; at
// depth d the valid columns are [Lo0+d, Hi0-d]. The answer is the apex cell
// (T, apex) with apex = Lo0+T = Hi0-T, so Hi0-Lo0 must equal 2*T. Init and
// Green are only evaluated on that grid.
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
		Fill: func(d, c, _ int, out []float64) {
			for i := range out {
				out[i] = green(d, c+lo+d+i)
			}
		},
		// An all-green row may carry any Bnd0 >= Hi0; the one-sided
		// problem only accepts up to its row end.
		Bnd0:     min(max(p.Bnd0, lo-1), p.Hi0) - lo,
		BaseCase: p.BaseCase,
		MaxDrop:  2,
		Cancel:   p.Cancel,
	}, st)
	return v, bnd + lo + p.T, err
}
