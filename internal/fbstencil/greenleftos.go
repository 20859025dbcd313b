package fbstencil

import (
	"fmt"
	"sync"

	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/scratch"
)

// This file holds the fast solver for one-sided stencils whose green region
// lies on the LEFT. The stencil's dependencies (offsets 0..r) point right,
// *away* from the green zone, so every cell strictly right of the old
// boundary has an all-red dependency cone whenever the boundary never moves
// right; one FFT then covers everything beyond the old boundary and only a
// width-h band at the boundary needs recursion.
//
// It carries three production instances. One is the paper's BSM American
// put (Section 4, Figure 4b) in depth-shifted columns c' = c-d, where the
// centered stencil turns one-sided (offsets 0..2) and Theorem 4.3's unit
// leftward boundary move turns into a drop of at most two per step (see
// GreenLeft). The other two are the binomial and trinomial American puts,
// which also price the lattice calls: a call is the put of its swapped
// contract (S and K, r and q exchanged; McDonald–Schroder symmetry, exact on
// both trees). Read the other way, a lattice put in its own columns is its
// swapped contract's call in mirrored columns c' = (T-d)*r - c, so the
// paper's call structure (Corollaries 2.7 and A.6: never right, at most one
// left) proves the put's: the green region is a left prefix whose boundary
// never rises and drops at most r columns per interior step (see GreenRight).
// GreenLeftOneSidedBoundaryTrace checks that structure on any instance and
// stays as the tests' oracle.
//
// The solver works on contiguous slices, every row buffer anchored by
// column: a zone reads its window of the row in place, hands the strip right
// of the boundary straight to the FFT, and both write their cells into the
// row that reads them next. The obstacle is read a row at a time, through
// Fill: each direct step reads the obstacle row of the cells it computes, in
// place when Fill hands out a view of the problem's table, and a window that
// extends left of a boundary takes its green cells from the obstacle.
// Columns left of 0 are virtual: a window near the grid's left edge reaches
// them, but no real cell reads them, since dependencies point right. The
// engine cuts every window at column 0, so it neither stores nor steps them
// and never asks Fill for them.

// GreenLeftOneSided describes a free-boundary problem with stencil offsets
// 0..r and the green region on the left. Geometry matches GreenRight
// (columns [0, Hi0-d*r] at depth d; answer at (T, 0)); green cells must
// equal the obstacle exactly, so boundary windows may extend leftward on
// obstacle fills.
type GreenLeftOneSided struct {
	Stencil linstencil.Stencil // MinOff must be 0
	T       int
	Hi0     int
	Init    func(col int) float64
	// Fill returns the obstacle row. The solver asks it only for cells on
	// the grid: 0 <= lo <= hi <= Hi0-depth*r.
	Fill FillFunc
	// Bnd0 is the largest green column of the initial row (-1 if none).
	Bnd0     int
	BaseCase int
	// MaxDrop bounds how many columns the boundary can move left per
	// interior step (0 means 1). Binomial puts satisfy 1; trinomial puts
	// and the BSM put 2 (one from the grid's per-step drift plus the
	// boundary's own); GreenRight problems in mirrored columns r, the
	// stencil's span.
	MaxDrop int
	// Cancel, when non-nil, is polled at trapezoid granularity; the first
	// non-nil error it returns unwinds the solve, and the solver returns
	// that error. Typically ctx.Err of a request context.
	Cancel func() error
	// Top, when non-nil, receives columns [0, len(Top)) of the row at depth
	// T-TopSteps(r), the first row above the apex with three cells: the
	// rows a pricer reads its delta, gamma and theta from. It needs
	// T >= TopSteps(r) and len(Top) <= Hi0-(T-TopSteps(r))*r+1.
	Top []float64
}

// TopSteps returns how many steps above the apex GreenLeftOneSided.Top's
// row lies on a stencil of span r: the fewest whose row holds at least three
// cells, 2 at span 1 and 1 otherwise.
func TopSteps(r int) int {
	if r == 1 {
		return 2
	}
	return 1
}

func (p *GreenLeftOneSided) validate() error {
	if err := p.Stencil.Validate(); err != nil {
		return err
	}
	if p.Stencil.MinOff != 0 {
		return fmt.Errorf("fbstencil: GreenLeftOneSided requires MinOff 0, got %d", p.Stencil.MinOff)
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
	if p.Init == nil || p.Fill == nil {
		return fmt.Errorf("fbstencil: Init and Fill must be set")
	}
	if p.Bnd0 > p.Hi0 {
		return fmt.Errorf("fbstencil: Bnd0=%d beyond row end %d", p.Bnd0, p.Hi0)
	}
	if p.Top != nil {
		r := p.Stencil.Span()
		k := TopSteps(r)
		if p.T < k {
			return fmt.Errorf("fbstencil: T=%d has no row %d steps above the apex", p.T, k)
		}
		if n := p.Hi0 - (p.T-k)*r + 1; len(p.Top) > n {
			return fmt.Errorf("fbstencil: Top holds %d cells, its row %d", len(p.Top), n)
		}
	}
	return nil
}

// glosEngine is one solve's state. Engines are pooled (engines) with their
// workspaces and split frames, so a warm solve allocates nothing.
type glosEngine struct {
	s      linstencil.Stencil
	w      []float64 // s.W
	r      int
	drop   int // max boundary drop per interior step
	hi0    int
	fill   FillFunc
	base   int
	stats  *Stats
	rec    bool // stats.recording()
	cancel func() error

	// ws is the zone recursion's workspace. The recursion runs on the
	// solve's goroutine: zoneSplitPar forks only the strip evolution, with a
	// workspace of its own in its split frame, and runs the subzone inline.
	ws *scratch.Workspace
	// splits are zoneSplitPar's frames, one per nesting level in use.
	splits []*split
	nsplit int
}

var engines = sync.Pool{New: func() any { return &glosEngine{ws: new(scratch.Workspace)} }}

// newEngine takes an engine from the pool for one solve of p.
func newEngine(p *GreenLeftOneSided, st *Stats) *glosEngine {
	e := engines.Get().(*glosEngine)
	e.s, e.w, e.r = p.Stencil, p.Stencil.W, p.Stencil.Span()
	e.drop, e.hi0, e.fill = max(p.MaxDrop, 1), p.Hi0, p.Fill
	e.base = p.BaseCase
	if e.base <= 0 {
		e.base = DefaultBaseCase
	}
	e.stats, e.rec, e.cancel = st, st.recording(), p.Cancel
	return e
}

// release hands the solve's buffers to the process-wide pools, one batch
// per workspace and class, and returns e to the pool. A canceled solve
// abandons the buffers it held to the GC.
func (e *glosEngine) release() {
	e.ws.Flush()
	for _, s := range e.splits {
		s.ws.Flush()
		s.src, s.dst = nil, nil
	}
	e.nsplit = 0
	e.s, e.w, e.fill, e.stats, e.cancel = linstencil.Stencil{}, nil, nil, nil, nil
	engines.Put(e)
}

func (e *glosEngine) hi(depth int) int { return e.hi0 - depth*e.r }

// take returns a buffer of n cells from the workspace and reports it as
// allocated: every step then writes its cells in place.
func (e *glosEngine) take(n int) []float64 {
	buf := e.ws.Floats(n)
	if e.rec {
		e.stats.record(Event{Kind: EventAlloc, Dst: buf})
	}
	return buf
}

// obstacle returns the obstacle row at depth on columns [lo, hi], all on
// the grid: a view of the problem's table, or buf filled.
func (e *glosEngine) obstacle(buf []float64, depth, lo, hi int) []float64 {
	g := e.fill(depth, lo, hi, buf)
	if e.rec {
		e.recordObstacle(g, buf)
	}
	return g
}

// recordObstacle reports g, the obstacle row a fill into buf returned, as
// the source or the fill it is.
func (e *glosEngine) recordObstacle(g, buf []float64) {
	if &g[0] != &buf[0] {
		e.stats.record(Event{Kind: EventSource, Dst: g})
	} else {
		e.stats.record(Event{Kind: EventFill, Dst: g, InPlace: true})
	}
}

// green writes the obstacle of depth d on columns [lo, hi], lo >= 0, into
// row, whose cell i is column a+i: the green cells a step reads left of the
// boundary.
func (e *glosEngine) green(row []float64, a, d, lo, hi int) {
	if lo > hi {
		return
	}
	dst := row[lo-a : hi+1-a]
	if g := e.obstacle(dst, d, lo, hi); &g[0] != &dst[0] {
		copy(dst, g)
		if e.rec {
			e.stats.record(Event{Kind: EventCopy, Src: g, Dst: dst, InPlace: true})
		}
	}
}

// recordSweep reports the direct step of out from in, with g the obstacle
// (StepObstacle's dst, src and ex).
func (e *glosEngine) recordSweep(out, in, g []float64) {
	n := len(out)
	e.stats.record(Event{Kind: EventSweep, Src: in[:n+e.r], Dst: out, Ex: g[:n], W: e.w, InPlace: true})
}

// SolveGreenLeftOneSided runs the fast solver and returns the apex value
// (depth T, column 0) and the final boundary, and fills p.Top. When p.Cancel
// reports an error the solve stops within roughly one trapezoid of work and
// returns it; a non-finite apex returns an ErrNonFinite-wrapped error.
//
// The solve keeps two rows of the grid, each cell at its column's index:
// cur, the row at the current depth, and next, which a trapezoid writes the
// row at its bottom into. Columns left of 0 are virtual: no real cell reads
// them, since dependencies point right, so every window is cut at column 0.
func SolveGreenLeftOneSided(p *GreenLeftOneSided, st *Stats) (price float64, boundary int, err error) {
	if err := p.validate(); err != nil {
		return 0, 0, err
	}
	defer recoverCancel(&err)
	e := newEngine(p, st)
	defer e.release()
	// The row at depth topD is passed by every solve, whether or not p.Top
	// asks for it: the loop never jumps over it, since a trapezoid covers at
	// most half the remaining depth, and the all-red path stops on it.
	topD := p.T - TopSteps(e.r)

	bnd := max(p.Bnd0, -1)
	// cur holds the red values of depth d on columns [bnd+1, hi(d)].
	cur, next := e.take(p.Hi0+1), e.take(p.Hi0+1)
	for j := bnd + 1; j <= p.Hi0; j++ {
		cur[j] = p.Init(j)
	}
	if e.rec && bnd < p.Hi0 {
		st.record(Event{Kind: EventFill, Dst: cur[bnd+1:], InPlace: true})
	}

	d := 0
	if p.T >= 1 {
		if topD == 0 {
			e.top(p.Top, 0, bnd, cur)
		}
		// The monotone-boundary structure only covers interior rows: the
		// payoff-based leaf boundary can jump at the first step (for calls
		// the red region widens once when R > Y; for puts the green one can
		// fall to ~ln(R/Y) when Y > R). One direct step over the full row,
		// with no floor on the new boundary, establishes the true boundary.
		e.green(cur, 0, 0, 0, bnd)
		bnd = e.direct(cur, next, 0, 0, e.hi(1), -1)
		d = 1
	}
	for d < p.T && bnd < e.hi(d) {
		checkCancel(e.cancel)
		if d == topD {
			e.top(p.Top, d, bnd, cur)
		}
		if bnd < 0 && d < topD {
			// Entirely red: one FFT evolution reaches the top row, and
			// direct steps take it to the apex.
			e.evolve(next, cur[:e.hi(d)+1], topD-d, e.ws)
			cur, next = next, cur
			d = topD
			continue
		}
		// The steps below read the green cells [bnd-drop, bnd].
		e.green(cur, 0, d, max(bnd-e.drop, 0), bnd)
		remaining := p.T - d
		// Half the remaining depth at most: one trapezoid down to the apex
		// makes the zone recursion cut ~25% more trapezoids (BSM put,
		// T=65536) and costs more time than it saves in direct cells.
		h := min(remaining/2, (e.hi(d)-bnd)/e.r)
		if h < e.base || bnd < 0 {
			from := bnd - e.drop
			bnd = e.direct(cur, next, d, from, bnd, max(from, -1))
			d++
			continue
		}
		// One trapezoid of height h: the zone resolves the band at the
		// boundary, and one FFT evolves everything right of it, since the
		// one-sided cone never reaches left into the green.
		bnd = e.zoneSplit(cur[:e.hi(d)+1], 0, d, bnd, h, h, next, 0)
		cur, next = next, cur
		d += h
	}
	if bnd >= 0 {
		// The apex is green: it lies at or left of the boundary, or a row
		// turned entirely green, and so is every later row, since the
		// boundary never rises while the right edge shrinks.
		if d <= topD {
			e.top(p.Top, topD, e.hi(topD), nil)
		}
		g := e.ws.Floats(1)
		v := e.fill(p.T, 0, 0, g)[0]
		e.ws.Put(g)
		e.ws.Put(next)
		e.ws.Put(cur)
		return v, bnd, checkFinite(v)
	}
	v := cur[0]
	e.ws.Put(next)
	e.ws.Put(cur)
	return v, bnd, checkFinite(v)
}

// top copies columns [0, len(dst)) of the row at depth d into dst: the
// obstacle up to bnd, then row's red cells right of it.
func (e *glosEngine) top(dst []float64, d, bnd int, row []float64) {
	g := min(bnd+1, len(dst))
	if g > 0 {
		copy(dst, e.fill(d, 0, g-1, dst[:g]))
	}
	if g < len(dst) {
		copy(dst[g:], row[g:])
	}
}

// direct is one direct step of row, which holds the cells of depth d at
// their columns' indices, in place on the window [max(from, 0), hi(d)]. The
// obstacle row is read into ex when the problem fills rows. It returns the
// new boundary: the largest column at most b where the obstacle won, or
// floor if there is none.
func (e *glosEngine) direct(row, ex []float64, d, from, b, floor int) int {
	lo, hi := max(from, 0), e.hi(d+1)
	if lo > hi {
		return floor
	}
	g := e.obstacle(ex[lo:hi+1], d+1, lo, hi)
	if j := StepObstacle(row[lo:hi+1], row[lo:], g, e.w, b-lo); j >= 0 {
		floor = lo + j
	}
	if e.rec {
		e.recordSweep(row[lo:hi+1], row[lo:], g)
	}
	e.stats.addNaive(hi + 1 - lo)
	return floor
}

// zone resolves the boundary band of height h. src holds the row at depth
// d, cell i at column sa+i, on columns [max(bnd-drop, 0), bnd+r*h]: the
// green cells [bnd-drop, bnd] the caller filled and the red cells right of
// bnd. zone writes the red cells (newBnd, bnd] of depth d+h into dst, cell
// i at column da+i, da <= max(bnd-drop*h, 0), and returns newBnd. It may
// also write cells of dst in [bnd-drop*h, newBnd]; the green ones the next
// step reads, the caller refills from the obstacle.
func (e *glosEngine) zone(src []float64, sa, d, bnd, h int, dst []float64, da int) int {
	checkCancel(e.cancel)
	e.stats.addTrap()
	if bnd < 0 {
		// No green cells remain and the band holds no red cell of its own.
		return -1
	}
	if h <= e.base {
		return e.zoneNaive(src, sa, d, bnd, h, dst, da)
	}
	h1 := (h + 1) / 2
	h2 := h - h1
	r := e.r
	src = src[:bnd+r*h+1-sa]

	// First half: the boundary subzone, and the cells (bnd, bnd+r*h2] of
	// depth d+h1 from the strip (bnd, bnd+r*h], both written into mid, the
	// row at depth d+h1 on columns [ma, bnd+r*h2].
	ma := max(bnd-e.drop*h, 0)
	mid := e.take(bnd + r*h2 + 1 - ma)
	midBnd := e.zoneSplit(src, sa, d, bnd, h, h1, mid, ma)
	e.green(mid, ma, d+h1, max(midBnd-e.drop, 0), midBnd)

	// Second half: cells (midBnd, bnd] of depth d+h from the strip
	// (midBnd, bnd+r*h2] of mid, beside the subzone. That strip leaves no
	// cell when the boundary did not move in the first half.
	newBnd := e.zoneSplit(mid, ma, d+h1, midBnd, h, h2, dst, da)
	e.ws.Put(mid)
	return newBnd
}

// evolve advances src, a red strip, by steps with one FFT evolution into
// dst[:len(src)-r*steps]; a strip too short to leave any exact cell
// evolves nothing.
func (e *glosEngine) evolve(dst, src []float64, steps int, ws *scratch.Workspace) {
	n := len(src) - e.r*steps
	if n <= 0 {
		return
	}
	linstencil.EvolveConeTo(dst[:n], src, e.s, steps, ws)
	e.stats.addFFT(src, dst[:n], steps, e.s.W)
}

// zoneSplit runs zone of height hh on src beside the FFT evolution of the
// strip right of bnd, src's columns (bnd, end], by hh steps; both write
// into dst. It runs them sequentially when the parent height h is at most
// parCutoff or the schedule is being recorded, else with the strip forked
// and the subzone inline, so the FFT's token returns for the subzone's own
// forks.
func (e *glosEngine) zoneSplit(src []float64, sa, d, bnd, h, hh int, dst []float64, da int) int {
	if h <= parCutoff || e.rec {
		nb := e.zone(src, sa, d, bnd, hh, dst, da)
		e.evolve(dst[bnd+1-da:], src[bnd+1-sa:], hh, e.ws)
		return nb
	}
	return e.zoneSplitPar(src, sa, d, bnd, hh, dst, da)
}

// split is zoneSplitPar's frame: the arguments and result of one fork, and
// the strip branch's workspace. Its two functions are bound once, so a
// fork allocates no closure.
type split struct {
	e                  *glosEngine
	ws                 *scratch.Workspace
	src, dst           []float64
	sa, da, d, bnd, hh int
	nb                 int
	fns                [2]func()
}

func (s *split) strip() {
	s.e.evolve(s.dst[s.bnd+1-s.da:], s.src[s.bnd+1-s.sa:], s.hh, s.ws)
}

func (s *split) zone() { s.nb = s.e.zone(s.src, s.sa, s.d, s.bnd, s.hh, s.dst, s.da) }

// zoneSplitPar is zoneSplit's fork, on the engine's frame for this nesting
// level.
func (e *glosEngine) zoneSplitPar(src []float64, sa, d, bnd, hh int, dst []float64, da int) int {
	if e.nsplit == len(e.splits) {
		s := &split{e: e, ws: new(scratch.Workspace)}
		s.fns = [2]func(){s.strip, s.zone}
		e.splits = append(e.splits, s)
	}
	s := e.splits[e.nsplit]
	e.nsplit++
	s.src, s.sa, s.d, s.bnd, s.hh, s.dst, s.da = src, sa, d, bnd, hh, dst, da
	par.Do(s.fns[:]...)
	s.src, s.dst = nil, nil
	e.nsplit--
	return s.nb
}

// zoneNaive is zone's base case: h direct steps in one loop. The rows of
// depth d+1..d+h-1 live in one workspace buffer, column lo0+i at index i,
// the first step reads src and the last writes dst. Each step computes only
// the columns from b-drop on, b the boundary before it: everything left of
// that is green by the structure. It reads the obstacle row once, from
// drop columns further left when the step is not the last: when the
// boundary drops, the next step reads that many green cells left of this
// one's start, which the loop copies in from the row it read.
func (e *glosEngine) zoneNaive(src []float64, sa, d, bnd, h int, dst []float64, da int) int {
	r, drop := e.r, e.drop
	lo0 := max(bnd-drop*h, 0)
	nw := 0
	if h > 1 {
		nw = bnd + r*(h-1) + 1 - lo0
	}
	buf := e.take(nw + bnd + r*(h-1) + 1 - lo0)
	work, ex := buf[:nw], buf[nw:]
	in, ia := src, sa
	b, cells := bnd, 0
	for t := 1; t <= h; t++ {
		out, oa := work, lo0
		if t == h {
			out, oa = dst, da
		}
		from := b - drop
		lo, hi := max(from, 0), bnd+r*(h-t)
		gl := lo
		if t < h {
			gl = max(from-drop, 0)
		}
		g := e.fill(d+t, gl, hi, ex)
		o, x := out[lo-oa:hi+1-oa], g[lo-gl:]
		nb := max(from, -1)
		if j := StepObstacle(o, in[lo-ia:], x, e.w, b-lo); j >= 0 {
			nb = lo + j
		}
		if e.rec {
			e.recordObstacle(g, ex)
			e.recordSweep(o, in[lo-ia:], x)
		}
		cells += hi + 1 - lo
		b = nb
		if c := max(b-drop, 0); t < h && c < lo {
			for i := c; i < lo; i++ {
				out[i-oa] = g[i-gl]
			}
			if e.rec {
				e.stats.record(Event{Kind: EventCopy, Src: g[c-gl : lo-gl], Dst: out[c-oa : lo-oa], InPlace: true})
			}
		}
		in, ia = out, oa
	}
	e.stats.addNaive(cells)
	e.ws.Put(buf)
	return b
}

// SolveGreenLeftOneSidedNaive is the direct O(T * width) oracle; it fills
// p.Top as SolveGreenLeftOneSided does.
func SolveGreenLeftOneSidedNaive(p *GreenLeftOneSided) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	return sweepNaive(p, func(int, int, int) error { return nil })
}

// sweepNaive is the direct sweep of p, one obstacle fill per row, and
// returns the apex value and fills p.Top. After each depth d >= 1 it passes
// visit the row's last green column and its first red one (-1 and
// Hi0-d*r+1 if none); an error from visit stops the sweep.
func sweepNaive(p *GreenLeftOneSided, visit func(d, lastGreen, firstRed int) error) (float64, error) {
	row := make([]float64, p.Hi0+1)
	for j := range row {
		row[j] = p.Init(j)
	}
	buf := make([]float64, p.Hi0+1)
	r := p.Stencil.Span()
	w := p.Stencil.W
	topD := p.T - TopSteps(r)
	for d := 1; d <= p.T; d++ {
		if d-1 == topD {
			copy(p.Top, row)
		}
		hi := p.Hi0 - d*r
		ex := p.Fill(d, 0, hi, buf)
		lastGreen, firstRed := -1, hi+1
		for j := 0; j <= hi; j++ {
			var lin float64
			for i, wi := range w {
				lin += wi * row[j+i]
			}
			if g := ex[j]; g > lin {
				lin = g
				lastGreen = j
			} else if firstRed > hi {
				firstRed = j
			}
			row[j] = lin
		}
		if err := visit(d, lastGreen, firstRed); err != nil {
			return 0, err
		}
		row = row[:hi+1]
	}
	return row[0], nil
}

// GreenLeftOneSidedBoundaryTrace solves naively while checking the
// structure the fast solver assumes: green-prefix contiguity at every depth,
// no rightward boundary moves after depth 1, and drops of at most MaxDrop
// per interior step. It returns the boundary per depth or the first
// violation.
func GreenLeftOneSidedBoundaryTrace(p *GreenLeftOneSided) ([]int, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	maxDrop := max(p.MaxDrop, 1)
	r := p.Stencil.Span()
	trace := make([]int, p.T+1)
	trace[0] = p.Bnd0
	_, err := sweepNaive(p, func(d, bnd, firstRed int) error {
		if firstRed < bnd {
			return fmt.Errorf("fbstencil: green region not contiguous at depth %d: col %d red, col %d green", d, firstRed, bnd)
		}
		// The previous row may simply have been wider.
		prev := min(trace[d-1], p.Hi0-(d-1)*r)
		if d > 1 {
			if bnd > prev {
				return fmt.Errorf("fbstencil: boundary moved right at depth %d: %d -> %d", d, prev, bnd)
			}
			if prev >= 0 && bnd < prev-maxDrop {
				return fmt.Errorf("fbstencil: boundary dropped by more than %d at depth %d: %d -> %d", maxDrop, d, prev, bnd)
			}
		}
		trace[d] = bnd
		return nil
	})
	if err != nil {
		return nil, err
	}
	return trace, nil
}
