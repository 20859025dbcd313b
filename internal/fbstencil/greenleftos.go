package fbstencil

import (
	"fmt"

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
// The solver works on contiguous slices: a zone receives its window of the
// row as one slice and hands subslices of it straight to the FFT. The
// obstacle is read a row at a time, through Fill: each direct step fills the
// obstacle row of the cells it computes, and a window that extends left of a
// boundary fills its green cells. Columns left of 0 are virtual: a window
// near the grid's left edge reaches them, but no real cell reads them, since
// dependencies point right. The engine fills them with zeros, never tests
// them against the obstacle, and never asks Fill for them.

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
	// Fill writes the obstacle row. The solver asks it only for cells on
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
	return nil
}

type glosEngine struct {
	s      linstencil.Stencil
	r      int
	drop   int // max boundary drop per interior step
	hi0    int
	fill   FillFunc
	base   int
	stats  *Stats
	cancel func() error
}

func (e *glosEngine) hi(depth int) int { return e.hi0 - depth*e.r }

// fillGreen writes the obstacle row at depth on columns [lo, lo+len(dst))
// into dst, zeros on the virtual columns left of 0; inPlace reports that dst
// already holds cells of an earlier row (see Event.InPlace).
func (e *glosEngine) fillGreen(dst []float64, depth, lo int, inPlace bool) {
	v := min(max(-lo, 0), len(dst))
	clear(dst[:v])
	if v < len(dst) {
		e.fill(depth, lo+v, lo+len(dst)-1, dst[v:])
	}
	if e.stats.recording() {
		e.stats.record(Event{Kind: EventFill, Dst: dst, InPlace: inPlace})
	}
}

// copyRow is copy(dst, src), recorded.
func (e *glosEngine) copyRow(dst, src []float64) {
	n := copy(dst, src)
	if e.stats.recording() {
		e.stats.record(Event{Kind: EventCopy, Src: src[:n], Dst: dst[:n]})
	}
}

// SolveGreenLeftOneSided runs the fast solver and returns the apex value
// (depth T, column 0) and the final boundary. When p.Cancel reports an error
// the solve stops within roughly one trapezoid of work and returns it; a
// non-finite apex returns an ErrNonFinite-wrapped error.
func SolveGreenLeftOneSided(p *GreenLeftOneSided, st *Stats) (price float64, boundary int, err error) {
	if err := p.validate(); err != nil {
		return 0, 0, err
	}
	defer recoverCancel(&err)
	e := &glosEngine{s: p.Stencil, r: p.Stencil.Span(), drop: max(p.MaxDrop, 1), hi0: p.Hi0, fill: p.Fill, base: p.BaseCase, stats: st, cancel: p.Cancel}
	if e.base <= 0 {
		e.base = DefaultBaseCase
	}

	bnd := max(p.Bnd0, -1)
	// seg stores red values, columns [bnd+1, hi(d)].
	var seg []float64
	if bnd < p.Hi0 {
		seg = scratch.Floats(p.Hi0 - bnd)
		for j := range seg {
			seg[j] = p.Init(bnd + 1 + j)
		}
		st.record(Event{Kind: EventFill, Dst: seg})
	}

	d := 0
	if p.T >= 1 {
		// The monotone-boundary structure only covers interior rows: the
		// payoff-based leaf boundary can jump at the first step (for calls
		// the red region widens once when R > Y; for puts the green one can
		// fall to ~ln(R/Y) when Y > R). One direct step over the full row,
		// with no floor on the new boundary, establishes the true boundary.
		seg, bnd = e.direct(seg, 0, bnd, 0, e.hi(1), -1)
		d = 1
	}
	for d < p.T && bnd < e.hi(d) {
		checkCancel(e.cancel)
		remaining := p.T - d
		if bnd < 0 {
			// Entirely red: one FFT evolution reaches the apex.
			out := e.evolve(seg, remaining)
			v := out[0]
			scratch.PutFloats(out)
			scratch.PutFloats(seg)
			return v, bnd, checkFinite(v)
		}
		// Half the remaining depth at most: one trapezoid down to the apex
		// makes the zone recursion cut ~25% more trapezoids (BSM put,
		// T=65536) and costs more time than it saves in direct cells.
		h := min(remaining/2, (e.hi(d)-bnd)/e.r)
		if h < e.base {
			// One direct step on the window [bnd-drop, hi(d)]: the green
			// cells the step reads, then seg.
			from := bnd - e.drop
			seg, bnd = e.direct(seg, d, bnd, from, bnd, max(from, -1))
			d++
			continue
		}
		// The zone's window [bnd-drop*h, bnd+r*h]: obstacle fill up to the
		// boundary, stored red values beyond it. Everything right of the
		// old boundary comes from one FFT of seg: the one-sided cone never
		// reaches left into the green.
		dh := e.drop * h
		win := scratch.Floats(dh + e.r*h + 1)
		e.fillGreen(win[:dh+1], d, bnd-dh, false)
		e.copyRow(win[dh+1:], seg)
		red, newBnd, right := e.zoneSplit(win, d, bnd, h, h, seg)
		scratch.PutFloats(win)
		// red covers (newBnd, bnd] at depth d+h; right covers
		// (bnd, hi(d)-r*h].
		next := scratch.Floats(e.hi(d+h) - newBnd)
		e.copyRow(next, red)
		e.copyRow(next[len(red):], right)
		scratch.PutFloats(red)
		scratch.PutFloats(right)
		scratch.PutFloats(seg)
		seg, bnd = next, newBnd
		d += h
	}
	if bnd >= 0 {
		// The apex is green: it lies at or left of the boundary, or a row
		// turned entirely green, and so is every later row, since the
		// boundary never rises while the right edge shrinks.
		g := scratch.Floats(1)
		e.fill(p.T, 0, 0, g)
		v := g[0]
		scratch.PutFloats(g)
		scratch.PutFloats(seg)
		return v, bnd, checkFinite(v)
	}
	v := seg[0]
	scratch.PutFloats(seg)
	return v, bnd, checkFinite(v)
}

// stepBuf takes one pooled buffer for direct steps on a row of n cells: the
// row, and after it the obstacle row of a step, which it reports as
// allocated (each step fills it in place).
func (e *glosEngine) stepBuf(n int) (buf, row, ex []float64) {
	buf = scratch.Floats(2*n - e.r)
	row, ex = buf[:n], buf[n:]
	if e.stats.recording() {
		e.stats.record(Event{Kind: EventAlloc, Dst: ex})
	}
	return buf, row, ex
}

// step is the direct step. row holds the cells of depth d on columns
// [from, from+len(row)); step advances it one step in place and returns the
// cells of depth d+1 on [from, from+len(row)-r), each the max of its linear
// update and the obstacle, which it fills into ex. It also returns the new
// boundary: the largest column at most b where the obstacle won, or floor if
// there is none. A cell right of b that the obstacle wins only by roundoff
// keeps the max but does not move the boundary, which never rises. The
// virtual cells left of column 0 keep their linear update.
func (e *glosEngine) step(row, ex []float64, d, from, b, floor int) ([]float64, int) {
	next := linstencil.Step(row, e.s)
	e.fillGreen(ex[:len(next)], d+1, from, true)
	v := min(max(-from, 0), len(next))
	cells, newB := next[v:], floor
	for i, g := range ex[v:len(next)] {
		if g > cells[i] {
			cells[i] = g
			if j := from + v + i; j <= b {
				newB = j
			}
		}
	}
	e.stats.addDirect(Event{Kind: EventSweep, Src: row, Dst: next, W: e.s.W, InPlace: true})
	return next, newB
}

// direct runs step, with b and floor, from depth d on the window
// [from, hi(d)]: the obstacle up to bnd, then seg, which it consumes
// (recycles). It returns the red cells of depth d+1 right of the new
// boundary, in a buffer of their own, and that boundary.
func (e *glosEngine) direct(seg []float64, d, bnd, from, b, floor int) ([]float64, int) {
	buf, win, ex := e.stepBuf(bnd - from + 1 + len(seg))
	e.fillGreen(win[:bnd-from+1], d, from, false)
	e.copyRow(win[bnd-from+1:], seg)
	scratch.PutFloats(seg)
	next, newBnd := e.step(win, ex, d, from, b, floor)
	return e.keep(buf, next[newBnd-from+1:]), newBnd
}

// keep copies red, cells of a direct step's buffer buf, out into a pooled
// buffer of their own and recycles buf: a front-trimmed buffer could not go
// back to its pool.
func (e *glosEngine) keep(buf, red []float64) []float64 {
	out := scratch.Floats(len(red))
	e.copyRow(out, red)
	scratch.PutFloats(buf)
	return out
}

// zone resolves the boundary band: given win, the row at depth d on columns
// [bnd-drop*h, bnd+r*h], it returns the red cells (newBnd, bnd] at depth d+h
// and the new boundary newBnd. Every cell at or left of newBnd is green, so
// the caller rebuilds it from the obstacle.
func (e *glosEngine) zone(win []float64, d, bnd, h int) ([]float64, int) {
	checkCancel(e.cancel)
	e.stats.addTrap()
	if bnd < 0 {
		// No green cells remain and the band holds no red cell of its own.
		return nil, -1
	}
	if h <= e.base {
		return e.zoneNaive(win, d, bnd, h)
	}
	h1 := (h + 1) / 2
	h2 := h - h1
	r, dh, dh1, dh2 := e.r, e.drop*h, e.drop*h1, e.drop*h2

	// First half: the boundary subzone on [bnd-drop*h1, bnd+r*h1], and the
	// cells (bnd, bnd+r*h2] at depth d+h1 from base columns (bnd, bnd+r*h].
	redA, midBnd, rightA := e.zoneSplit(win[dh-dh1:dh+r*h1+1], d, bnd, h, h1, win[dh+1:])

	// The row at depth d+h1 on [midBnd-drop*h2, bnd+r*h2].
	mid := scratch.Floats(dh2 + 1 + len(redA) + len(rightA))
	e.fillGreen(mid[:dh2+1], d+h1, midBnd-dh2, false)
	e.copyRow(mid[dh2+1:], redA)
	e.copyRow(mid[dh2+1+len(redA):], rightA)
	scratch.PutFloats(redA)
	scratch.PutFloats(rightA)

	// Second half: cells (midBnd, bnd] at depth d+h from mid columns
	// (midBnd, bnd+r*h2]. That strip is empty when the boundary did not
	// move in the first half (midBnd == bnd).
	redB, newBnd, rightB := e.zoneSplit(mid[:dh2+r*h2+1], d+h1, midBnd, h, h2, mid[dh2+1:])
	scratch.PutFloats(mid)

	out := scratch.Floats(len(redB) + len(rightB))
	e.copyRow(out, redB)
	e.copyRow(out[len(redB):], rightB)
	scratch.PutFloats(redB)
	scratch.PutFloats(rightB)
	return out, newBnd
}

// evolve advances the all-red strip by steps with one FFT evolution; a
// strip too short to leave any exact cell returns nil.
func (e *glosEngine) evolve(strip []float64, steps int) []float64 {
	if len(strip) <= e.r*steps {
		return nil
	}
	out, _ := linstencil.EvolveCone(strip, e.s, steps)
	e.stats.addFFT(strip, out, steps, e.s.W)
	return out
}

// zoneSplit runs the boundary subzone of height hh on win beside the FFT
// evolution of strip, the columns right of bnd: sequentially when the
// parent height h is at most parCutoff or the schedule is being recorded,
// else with the strip forked and the subzone inline, so the FFT's token
// returns for the subzone's own forks.
func (e *glosEngine) zoneSplit(win []float64, d, bnd, h, hh int, strip []float64) ([]float64, int, []float64) {
	if h <= parCutoff || e.stats.recording() {
		red, nb := e.zone(win, d, bnd, hh)
		return red, nb, e.evolve(strip, hh)
	}
	return e.zoneSplitPar(win, d, bnd, hh, strip)
}

// zoneSplitPar is zoneSplit's fork, in its own function so the serial path
// never pays for the closures; the results share one capture box.
func (e *glosEngine) zoneSplitPar(win []float64, d, bnd, hh int, strip []float64) ([]float64, int, []float64) {
	var res struct {
		red, right []float64
		nb         int
	}
	par.Do(
		func() { res.right = e.evolve(strip, hh) },
		func() { res.red, res.nb = e.zone(win, d, bnd, hh) },
	)
	return res.red, res.nb, res.right
}

// zoneNaive steps the window [lo, bnd+r*h], lo = bnd-drop*h, h times in one
// scratch buffer of its own. Each step computes only the columns from
// b-drop on, b the boundary before it: everything left of that is green by
// the structure. When the boundary drops, the columns the next step reads
// left of this one's start are refilled from the obstacle (at most drop of
// them).
func (e *glosEngine) zoneNaive(win []float64, d, bnd, h int) ([]float64, int) {
	lo := bnd - e.drop*h
	buf, row, ex := e.stepBuf(len(win))
	e.copyRow(row, win)
	end := len(row) // row[:end] holds the current row
	b := bnd
	for t := 1; t <= h; t++ {
		from := b - e.drop
		// depth d+t on [from, bnd+r*(h-t)]
		_, b = e.step(row[from-lo:end], ex, d+t-1, from, b, max(from, -1))
		end -= e.r
		if t < h && b < from+e.drop {
			e.fillGreen(row[b-e.drop-lo:from-lo], d+t, b-e.drop, true)
		}
	}
	return e.keep(buf, row[b+1-lo:end]), b
}

// SolveGreenLeftOneSidedNaive is the direct O(T * width) oracle.
func SolveGreenLeftOneSidedNaive(p *GreenLeftOneSided) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	return sweepNaive(p, func(int, int, int) error { return nil })
}

// sweepNaive is the direct sweep of p, one obstacle fill per row, and
// returns the apex value. After each depth d >= 1 it passes visit the row's
// last green column and its first red one (-1 and Hi0-d*r+1 if none); an
// error from visit stops the sweep.
func sweepNaive(p *GreenLeftOneSided, visit func(d, lastGreen, firstRed int) error) (float64, error) {
	row := make([]float64, p.Hi0+1)
	for j := range row {
		row[j] = p.Init(j)
	}
	ex := make([]float64, p.Hi0+1)
	r := p.Stencil.Span()
	w := p.Stencil.W
	for d := 1; d <= p.T; d++ {
		hi := p.Hi0 - d*r
		p.Fill(d, 0, hi, ex[:hi+1])
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
