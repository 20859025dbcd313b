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
// row as one slice and hands subslices of it straight to the FFT. Besides
// the obstacle test of each computed cell, the closed form is read only to
// fill the green cells at or left of a boundary.

// GreenLeftOneSided describes a free-boundary problem with stencil offsets
// 0..r and the green region on the left. Geometry matches GreenRight
// (columns [0, Hi0-d*r] at depth d; answer at (T, 0)); green cells must
// equal Green exactly, so boundary windows may extend leftward on the
// closed form.
type GreenLeftOneSided struct {
	Stencil linstencil.Stencil // MinOff must be 0
	T       int
	Hi0     int
	Init    func(col int) float64
	Green   GreenFunc
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
	if p.Init == nil || p.Green == nil {
		return fmt.Errorf("fbstencil: Init and Green must be set")
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
	green  GreenFunc
	base   int
	stats  *Stats
	cancel func() error
}

func (e *glosEngine) hi(depth int) int { return e.hi0 - depth*e.r }

// fillGreen writes the closed form of the row at depth on columns
// [lo, lo+len(dst)) into dst; inPlace reports that dst already holds cells
// of an earlier row (see Event.InPlace).
func (e *glosEngine) fillGreen(dst []float64, depth, lo int, inPlace bool) {
	for i := range dst {
		dst[i] = e.green(depth, lo+i)
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
	e := &glosEngine{s: p.Stencil, r: p.Stencil.Span(), drop: max(p.MaxDrop, 1), hi0: p.Hi0, green: p.Green, base: p.BaseCase, stats: st, cancel: p.Cancel}
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
		// fall to ~ln(R/Y) when Y > R). One exact full-width step
		// establishes the true boundary.
		seg, bnd = e.exactFirstStep(seg, bnd)
		d = 1
	}
	for d < p.T {
		checkCancel(e.cancel)
		if bnd >= e.hi(d) {
			// Entirely green; since the boundary never rises while the
			// right edge shrinks, every later row (and the apex) is green.
			scratch.PutFloats(seg)
			v := p.Green(p.T, 0)
			return v, bnd, checkFinite(v)
		}
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
			old := seg
			seg, bnd = e.naiveStep(seg, bnd, d)
			scratch.PutFloats(old)
			d++
			continue
		}
		// The zone's window [bnd-drop*h, bnd+r*h]: closed form up to the
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
		// Apex column 0 lies at or left of the boundary: green.
		scratch.PutFloats(seg)
		v := p.Green(p.T, 0)
		return v, bnd, checkFinite(v)
	}
	v := seg[0]
	scratch.PutFloats(seg)
	return v, bnd, checkFinite(v)
}

// exactFirstStep computes the full depth-1 row and its exact boundary. It
// consumes (recycles) its input segment.
func (e *glosEngine) exactFirstStep(seg []float64, bnd int) ([]float64, int) {
	row := scratch.Floats(e.hi0 + 1)
	e.fillGreen(row[:bnd+1], 0, 0, false)
	e.copyRow(row[bnd+1:], seg)
	scratch.PutFloats(seg)
	defer scratch.PutFloats(row)
	hi1 := e.hi(1)
	vals := scratch.Floats(hi1 + 1)
	isGreen := make([]bool, hi1+1)
	par.For(hi1+1, 512, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			var lin float64
			for i, w := range e.s.W {
				lin += w * row[j+i]
			}
			g := e.green(1, j)
			if g > lin {
				vals[j] = g
				isGreen[j] = true
			} else {
				vals[j] = lin
			}
		}
	})
	e.stats.addDirect(Event{Kind: EventDirect, Src: row, Dst: vals, Lo: 0, Bnd: -1, N: hi1 + 1, W: e.s.W})
	newBnd := -1
	for j := hi1; j >= 0; j-- {
		if isGreen[j] {
			newBnd = j
			break
		}
	}
	// Copy the red suffix out: a front-trimmed buffer could not go back to
	// its pool, and this one is row-sized.
	seg = scratch.Floats(hi1 - newBnd)
	e.copyRow(seg, vals[newBnd+1:])
	scratch.PutFloats(vals)
	return seg, newBnd
}

// at reads column col of the row at depth: stored red right of bnd, exact
// green closed form at or left of it (valid arbitrarily far left).
func (e *glosEngine) at(seg []float64, bnd, depth, col int) float64 {
	if col > bnd {
		return seg[col-bnd-1]
	}
	return e.green(depth, col)
}

// cellAt computes cell (d+1, j) from the depth-d row and reports whether the
// closed form won.
func (e *glosEngine) cellAt(seg []float64, bnd, d, j int) (float64, bool) {
	var lin float64
	for i, w := range e.s.W {
		lin += w * e.at(seg, bnd, d, j+i)
	}
	if g := e.green(d+1, j); g > lin {
		return g, true
	}
	return lin, false
}

// naiveStep advances the stored red segment one step. It relies only on
// green-prefix contiguity: the boundary is located by walking down from the
// previous one, so the cost is O(red width + boundary movement).
func (e *glosEngine) naiveStep(seg []float64, bnd, d int) ([]float64, int) {
	newHi := e.hi(d + 1)
	top := min(bnd, newHi)
	newBnd := top
	for newBnd >= 0 {
		if _, green := e.cellAt(seg, bnd, d, newBnd); green {
			break
		}
		newBnd--
	}
	// The walk's cells only locate the boundary; the red ones are
	// recomputed below.
	e.stats.addDirect(Event{Kind: EventDirect, Src: seg, Lo: max(newBnd, 0), Bnd: bnd, N: top - max(newBnd, 0) + 1, W: e.s.W})
	next := scratch.Floats(newHi - newBnd)
	for j := newBnd + 1; j <= newHi; j++ {
		v, _ := e.cellAt(seg, bnd, d, j)
		next[j-newBnd-1] = v
	}
	e.stats.addDirect(Event{Kind: EventDirect, Src: seg, Dst: next, Lo: newBnd + 1, Bnd: bnd, N: len(next), W: e.s.W})
	return next, newBnd
}

// zone resolves the boundary band: given win, the row at depth d on columns
// [bnd-drop*h, bnd+r*h], it returns the red cells (newBnd, bnd] at depth d+h
// and the new boundary newBnd. Every cell at or left of newBnd is green, so
// the caller rebuilds it from the closed form.
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
// scratch buffer. Each step computes only the columns from b-drop on, b the
// boundary before it: everything left of that is green by the structure.
// The columns the next step reads left of its own start are refilled from
// the closed form (at most drop of them).
func (e *glosEngine) zoneNaive(win []float64, d, bnd, h int) ([]float64, int) {
	lo := bnd - e.drop*h
	row := scratch.Floats(len(win))
	e.copyRow(row, win)
	end := len(row) // row[:end] holds the current row
	b := bnd
	for t := 1; t <= h; t++ {
		from := b - e.drop
		next := linstencil.Step(row[from-lo:end], e.s) // depth d+t on [from, bnd+r*(h-t)]
		end -= e.r
		// Columns below 0 are virtual filler (no real cell ever reads them,
		// since dependencies point right) and never count as green. Nor
		// does a cell right of b: the boundary never rises, and a cell there
		// that the closed form wins only by roundoff keeps max(lin, green),
		// as in the direct sweep.
		newB := max(from, -1)
		for i, lin := range next {
			if g := e.green(d+t, from+i); g > lin {
				next[i] = g
				if j := from + i; j > newB && j <= b {
					newB = j
				}
			}
		}
		e.stats.addDirect(Event{Kind: EventDirect, Src: row, Dst: next, Lo: from, Bnd: lo - 1, N: len(next), W: e.s.W, InPlace: true})
		b = newB
		if t < h {
			e.fillGreen(row[b-e.drop-lo:from-lo], d+t, b-e.drop, true)
		}
	}
	red := scratch.Floats(bnd - b)
	e.copyRow(red, row[b+1-lo:])
	scratch.PutFloats(row)
	return red, b
}

// SolveGreenLeftOneSidedNaive is the direct O(T * width) oracle.
func SolveGreenLeftOneSidedNaive(p *GreenLeftOneSided) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	row := make([]float64, p.Hi0+1)
	for j := range row {
		row[j] = p.Init(j)
	}
	r := p.Stencil.Span()
	w := p.Stencil.W
	for d := 1; d <= p.T; d++ {
		hi := p.Hi0 - d*r
		for j := 0; j <= hi; j++ {
			var lin float64
			for i, wi := range w {
				lin += wi * row[j+i]
			}
			if g := p.Green(d, j); g > lin {
				lin = g
			}
			row[j] = lin
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
	maxDrop := p.MaxDrop
	if maxDrop < 1 {
		maxDrop = 1
	}
	row := make([]float64, p.Hi0+1)
	for j := range row {
		row[j] = p.Init(j)
	}
	r := p.Stencil.Span()
	w := p.Stencil.W
	trace := make([]int, p.T+1)
	trace[0] = p.Bnd0
	isGreen := make([]bool, p.Hi0+1)
	for d := 1; d <= p.T; d++ {
		hi := p.Hi0 - d*r
		bnd := -1
		for j := 0; j <= hi; j++ {
			var lin float64
			for i, wi := range w {
				lin += wi * row[j+i]
			}
			g := p.Green(d, j)
			if g > lin {
				row[j] = g
				isGreen[j] = true
				bnd = j
			} else {
				row[j] = lin
				isGreen[j] = false
			}
		}
		for j := 0; j <= bnd; j++ {
			if !isGreen[j] {
				return nil, fmt.Errorf("fbstencil: green region not contiguous at depth %d: col %d red, col %d green", d, j, bnd)
			}
		}
		prev := trace[d-1]
		if prev > hi+r {
			prev = hi + r
		}
		if d > 1 {
			if bnd > prev {
				return nil, fmt.Errorf("fbstencil: boundary moved right at depth %d: %d -> %d", d, prev, bnd)
			}
			if prev >= 0 && bnd < prev-maxDrop {
				return nil, fmt.Errorf("fbstencil: boundary dropped by more than %d at depth %d: %d -> %d", maxDrop, d, prev, bnd)
			}
		}
		trace[d] = bnd
		row = row[:hi+1]
	}
	return trace, nil
}
