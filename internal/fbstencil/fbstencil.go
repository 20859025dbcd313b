// Package fbstencil implements the paper's core contribution: fast solvers
// for free-boundary ("obstacle") nonlinear 1D stencil computations.
//
// A nonlinear stencil in this class updates a cell as
//
//	value(d+1, j) = max( sum_o w[o]*value(d, j+o),  Green(d+1, j) )
//
// where Green is a closed-form function of the cell coordinates (the exercise
// value in option pricing). The engine reads it a row at a time, through a
// FillFunc; the pricing models hand out rows of a table computed once per
// solve, in place. Every row then splits into a contiguous *red* region, where the
// linear combination wins, and a contiguous *green* region, where the closed
// form wins; the red/green boundary column moves by at most one cell per
// step and only in one direction (the paper's Corollary 2.7 for BOPM,
// Corollary A.6 for TOPM, Theorem 4.3 for BSM).
//
// The solver exploits that structure: large all-red trapezoids are advanced
// many steps at once with one FFT-accelerated linear evolution
// (linstencil.EvolveConeTo), while a geometrically shrinking band around the
// unknown boundary is resolved recursively, giving O(T log^2 T) work and O(T)
// span on a grid of size Theta(T) evolved for T steps. The recursion ends in
// one direct step, used wherever a band is too thin to split: StepObstacle,
// one pass over the window that takes each cell's max with the obstacle row
// and finds the new boundary.
//
// There is one engine, SolveGreenLeftOneSided: a one-sided stencil (offsets
// 0..r) whose green region lies on the left. The pricing models build its
// problems directly. The BOPM and TOPM American puts are instances as they
// stand, and the lattice calls are priced as the puts of their swapped
// contracts (put-call symmetry). The BSM American put (Section 4.3, a
// centered 3-point stencil) becomes one in depth-shifted columns c' = c - d,
// with offsets 0..2. Package stencil maps its public problem types onto the
// same engine: a green region on the right in mirrored columns
// c' = (T-d)*r - c, a centered stencil in depth-shifted columns.
package fbstencil

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

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
// threading an error return through every level. Buffers in flight are
// abandoned to the GC rather than returned to the workspace; that is
// explicitly safe (see the buffer-discipline note below: correctness never
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

// Buffer discipline: a solve takes its buffers from a workspace of its own
// (scratch.Workspace, carried by the engine), a LIFO freelist per capacity
// class with no synchronization, and hands them all to internal/scratch's
// process-wide pools in one batch when it ends. The recursion's buffers
// nest, so a warm solve allocates nothing and touches the process-wide pools
// only for the first buffer of each nesting level. The rules are:
//
//   - every row buffer is anchored by column: cell i of a buffer anchored
//     at a holds column a+i, so each step, base case and FFT evolution
//     writes its cells straight into the row that reads them next, and no
//     result is copied between buffers;
//   - a zone reads its input window and writes its result into the
//     caller's row; it never writes its input, which a parallel FFT may be
//     reading (see zoneSplit);
//   - the zone recursion runs on the solve's goroutine and uses the
//     engine's workspace; a forked strip evolution uses the workspace of
//     its split frame;
//   - correctness never depends on a Put: a buffer the pools cannot take
//     is dropped to the GC.

// DefaultBaseCase is the recursion cutoff height below which trapezoids are
// solved by direct steps; a problem can override it. The paper's best was 8.
// Ours comes from the ablation-basecase sweep in BENCH_paper.json
// (amop-bench -experiment ablation; BOPM on 2 CPUs), where a direct step is
// one StepObstacle pass on the AVX2 kernel, in one loop per base case: 64
// takes 0.50 ms at T=4096, against 0.61 at 32 and 0.54 at 128, and 2.29 ms
// at T=16384, against 2.65 at 32 and 2.21 at 128, inside 128's IQR (0.20
// ms). Before the kernel, 32 was the fastest at both sizes and 64 gained
// nothing.
const DefaultBaseCase = 64

// parCutoff is the zone height at or below which the FFT strip and the
// boundary subzone run sequentially instead of through par.Do: under
// ~this much work the fork-join, with its goroutine spawn, costs more than
// the parallelism returns. The deep, numerous small trapezoids all take the
// serial path; the few large ones near the top of the recursion keep the
// paper's parallel span. With one-loop base cases a zone this low finishes
// before the strip's offer finds a free worker: at 64, a T=2^15 BSM put at
// two workers forked in 7–8% of its 1,134 par calls, at 256 in 18–20% of
// 404, in the same time per solve.
const parCutoff = 256

// Stats collects work counters from a solve. Counters are updated atomically
// and may be shared between concurrent solves. A nil *Stats disables
// collection.
type Stats struct {
	FFTCalls   atomic.Int64 // FFT evolutions (linstencil.EvolveConeTo)
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
	// row fill: the initial row, or an obstacle row (a direct step's, or the
	// green cells at or left of a boundary) filled into a buffer of the
	// solver's.
	EventFill EventKind = iota
	// EventCopy copies Src into Dst.
	EventCopy
	// EventFFT evolves Src by Steps steps of W with one FFT; Dst holds the
	// len(Src)-(len(W)-1)*Steps exact outputs.
	EventFFT
	// EventSweep is a direct step's update of len(Dst) cells: a baseline
	// sweep's (package sweep) or one of the fast solver's. Cell j reads
	// Src[j .. j+len(W)-1] and stores Dst[j], the max of that sum and the
	// cell's obstacle. Dst may start at Src[0]. The fast solver's step reads
	// the obstacle of Dst[j] from Ex[j], reported before the step as an
	// EventFill or an EventSource. A sweep reports no Ex: it reads the
	// obstacle from its exercise chunk, unreported.
	EventSweep
	// EventAlloc gives Dst fresh memory without touching it; later steps
	// write its cells in place.
	EventAlloc
	// EventSource reports Dst, a row view of memory the problem computed
	// before the solve (its obstacle table), which the next step reads in
	// place. The solve never writes it.
	EventSource
)

// Event is one step of a solve's schedule. Src, Dst and Ex are the solver's
// own buffers, or views of the problem's tables: a replay can follow every
// value from the step that wrote it to the steps that read it. They are
// valid only during the callback.
type Event struct {
	Kind     EventKind
	Src, Dst []float64
	Ex       []float64 // EventSweep: the obstacle the fast solver's step read
	Steps    int       // EventFFT: steps evolved
	W        []float64 // stencil weights of EventFFT and EventSweep
	// InPlace marks a step that writes cells of a buffer earlier steps
	// already wrote or allocated (every buffer the fast solver takes, a
	// sweep's row); otherwise Dst is memory the step writes fresh.
	InPlace bool
}

// Record makes every solve st is passed to report its schedule to rec, in
// order, and run serially so that the order is deterministic; the counters
// are unchanged, since they do not depend on the schedule. rec == nil stops
// recording. A recording Stats must serve one solve at a time.
func Record(st *Stats, rec func(Event)) { st.rec = rec }

func (s *Stats) recording() bool { return s != nil && s.rec != nil }

// record reports ev to the recorder.
func (s *Stats) record(ev Event) {
	if s.recording() {
		s.rec(ev)
	}
}

// addFFT counts one FFT evolution of src into out, a buffer the solve
// took (see Event.InPlace), and records it.
func (s *Stats) addFFT(src, out []float64, steps int, w []float64) {
	if s != nil {
		s.FFTCalls.Add(1)
		s.FFTCells.Add(int64(len(out)))
		s.record(Event{Kind: EventFFT, Src: src, Dst: out, Steps: steps, W: w, InPlace: true})
	}
}

// addNaive counts n cells of direct steps.
func (s *Stats) addNaive(n int) {
	if s != nil {
		s.NaiveCells.Add(int64(n))
	}
}

func (s *Stats) addTrap() {
	if s != nil {
		s.Trapezoids.Add(1)
	}
}

// FillFunc returns the obstacle values of cells (depth, lo..hi), hi-lo+1 of
// them: either a read-only view of a table the problem computed before the
// solve, or buf, which holds at least that many cells, filled. The engine
// and the baseline sweeps (package sweep) read the obstacle through it.
type FillFunc func(depth, lo, hi int, buf []float64) []float64
