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
// It carries three instances. The paper's BSM American put (Section 4,
// Figure 4b) becomes one in depth-shifted columns c' = c-d: the centered
// stencil turns one-sided (offsets 0..2) and Theorem 4.3's unit leftward
// boundary move turns into a drop of at most two per step (see GreenLeft).
// The binomial and trinomial American puts, which the paper lists as future
// work, are the other two; for them the required structure (green-prefix
// contiguity; boundary non-increasing, dropping at most MaxDrop columns per
// interior step) is NOT proven. GreenLeftOneSidedBoundaryTrace verifies it
// empirically on any instance, and the package tests exercise it across
// broad random parameters; the public API surfaces the lattice puts as
// experimental.

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
	// interior step (0 means 1). Binomial puts satisfy 1; trinomial puts 2
	// (one from the grid's per-step price drift plus the boundary's own).
	MaxDrop int
	// Cancel, when non-nil, is polled at trapezoid granularity; see
	// GreenRight.Cancel.
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

// SolveGreenLeftOneSided runs the fast solver and returns the apex value
// (depth T, column 0) and the final boundary. Cancellation and health
// semantics match SolveGreenRight.
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
	}

	d := 0
	if p.T >= 1 {
		// Same leaf-row exemption as the other solvers: the payoff-based
		// leaf boundary can jump at the first interior step; one exact
		// full-width step establishes the true one.
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
			out, _ := linstencil.EvolveCone(seg, e.s, remaining)
			e.stats.addFFT(len(out))
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
		read := e.readRow(seg, bnd, d)
		var zoneVals []float64
		var newBnd int
		var rightVals []float64
		// The FFT forks and the zone recursion stays inline, so the FFT's
		// token returns for the recursion's own forks.
		par.Do(
			func() {
				// Everything right of the old boundary comes from one FFT:
				// the one-sided cone never reaches left into the green.
				if len(seg)-e.r*h > 0 {
					rightVals, _ = linstencil.EvolveCone(seg, e.s, h)
					e.stats.addFFT(len(rightVals))
				}
			},
			func() { zoneVals, newBnd = e.zone(read, d, bnd, h) },
		)
		// zoneVals covers [bnd-drop*h, bnd] at depth d+h; rightVals covers
		// (bnd, hi(d)-r*h].
		newHi := e.hi(d + h)
		newSeg := scratch.Floats(newHi - newBnd)
		for j := newBnd + 1; j <= bnd; j++ {
			newSeg[j-newBnd-1] = zoneVals[j-(bnd-e.drop*h)]
		}
		copy(newSeg[bnd-newBnd:], rightVals)
		scratch.PutFloats(zoneVals)
		scratch.PutFloats(rightVals)
		scratch.PutFloats(seg)
		seg, bnd = newSeg, newBnd
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

// readRow gives row access at the stated depth: stored red right of bnd,
// exact green closed form at or left of it (valid arbitrarily far left).
func (e *glosEngine) readRow(seg []float64, bnd, depth int) func(col int) float64 {
	return func(col int) float64 {
		if col > bnd {
			return seg[col-bnd-1]
		}
		return e.green(depth, col)
	}
}

// exactFirstStep computes the full depth-1 row and its exact boundary. It
// consumes (recycles) its input segment.
func (e *glosEngine) exactFirstStep(seg []float64, bnd int) ([]float64, int) {
	defer scratch.PutFloats(seg)
	read := e.readRow(seg, bnd, 0)
	hi1 := e.hi(1)
	if hi1 < 0 {
		return nil, -1
	}
	vals := scratch.Floats(hi1 + 1)
	isGreen := make([]bool, hi1+1)
	par.For(hi1+1, 512, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			var lin float64
			for i, w := range e.s.W {
				lin += w * read(j+i)
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
	e.stats.addNaive(hi1 + 1)
	newBnd := -1
	for j := hi1; j >= 0; j-- {
		if isGreen[j] {
			newBnd = j
			break
		}
	}
	return vals[newBnd+1:], newBnd
}

// at is readRow without the closure, for the per-step direct loop.
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
	newBnd := min(bnd, newHi)
	cells := 0
	for newBnd >= 0 {
		cells++
		if _, green := e.cellAt(seg, bnd, d, newBnd); green {
			break
		}
		newBnd--
	}
	next := scratch.Floats(newHi - newBnd)
	for j := newBnd + 1; j <= newHi; j++ {
		v, _ := e.cellAt(seg, bnd, d, j)
		next[j-newBnd-1] = v
	}
	e.stats.addNaive(cells + len(next))
	return next, newBnd
}

// zone resolves the boundary band: given read access to the row at depth d
// on columns [bnd-drop*h, bnd+r*h], it returns values on [bnd-drop*h, bnd]
// at depth d+h and the new boundary.
func (e *glosEngine) zone(read func(int) float64, d, bnd, h int) ([]float64, int) {
	checkCancel(e.cancel)
	e.stats.addTrap()
	if bnd < 0 {
		// No green cells remain, so the whole band consists of virtual
		// columns; return closed-form filler (never read by any real cell)
		// and keep the boundary dead.
		out := scratch.Floats(e.drop*h + 1)
		for i := range out {
			out[i] = e.green(d+h, bnd-e.drop*h+i)
		}
		return out, -1
	}
	if h <= e.base {
		return e.zoneNaive(read, d, bnd, h)
	}
	h1 := (h + 1) / 2
	h2 := h - h1
	r := e.r

	// First half: the boundary subzone and cells (bnd, bnd+r*h2] at depth
	// d+h1 from base columns (bnd, bnd+r*h].
	zoneA, midBnd, midRight := e.zoneSplit(read, d, bnd, h, h1, bnd+1, r*h)
	midRead := func(col int) float64 {
		switch {
		case col <= midBnd:
			return e.green(d+h1, col)
		case col <= bnd:
			return zoneA[col-(bnd-e.drop*h1)]
		default:
			return midRight[col-(bnd+1)]
		}
	}

	// Second half: cells (midBnd, bnd] at depth d+h from mid columns
	// (midBnd, bnd+r*h2]. The FFT strip is empty when the boundary did not
	// move in the first half (midBnd == bnd).
	fftCount := 0
	if midBnd < bnd {
		fftCount = bnd + r*h2 - midBnd
	}
	zoneB, newBnd, botRight := e.zoneSplit(midRead, d+h1, midBnd, h, h2, midBnd+1, fftCount)
	scratch.PutFloats(zoneA)
	scratch.PutFloats(midRight)

	lo := bnd - e.drop*h
	out := scratch.Floats(e.drop*h + 1) // columns [bnd-drop*h, bnd]
	for j := lo; j <= bnd; j++ {
		switch {
		case j <= newBnd:
			out[j-lo] = e.green(d+h, j)
		case j <= midBnd:
			out[j-lo] = zoneB[j-(midBnd-e.drop*h2)]
		default:
			out[j-lo] = botRight[j-(midBnd+1)]
		}
	}
	scratch.PutFloats(zoneB)
	scratch.PutFloats(botRight)
	return out, newBnd
}

// zoneFFT evolves the window [base, base+count) by steps with one staged FFT
// call; a zero count returns nil (the strip is empty).
func (e *glosEngine) zoneFFT(read func(int) float64, base, count, steps int) []float64 {
	if count <= 0 {
		return nil
	}
	in := scratch.Floats(count)
	for j := 0; j < count; j++ {
		in[j] = read(base + j)
	}
	out, _ := linstencil.EvolveCone(in, e.s, steps)
	scratch.PutFloats(in)
	e.stats.addFFT(len(out))
	return out
}

// zoneSplit runs one half of the zone recursion — the boundary subzone of
// height hh and the exact FFT strip beside it — sequentially below parCutoff.
// Above it the strip forks and the subzone stays inline. h is the parent
// zone height (cutoff decision only).
func (e *glosEngine) zoneSplit(read func(int) float64, d, bnd, h, hh, base, count int) ([]float64, int, []float64) {
	if h <= parCutoff {
		z, nb := e.zone(read, d, bnd, hh)
		return z, nb, e.zoneFFT(read, base, count, hh)
	}
	return e.zoneSplitPar(read, d, bnd, hh, base, count)
}

func (e *glosEngine) zoneSplitPar(read func(int) float64, d, bnd, hh, base, count int) (z []float64, nb int, fftOut []float64) {
	par.Do(
		func() { fftOut = e.zoneFFT(read, base, count, hh) },
		func() { z, nb = e.zone(read, d, bnd, hh) },
	)
	return z, nb, fftOut
}

// zoneNaive iterates the shrinking window [bnd-drop*h, bnd+r*(h-t)] directly,
// in place in one scratch buffer: each step is the linear step, then the
// obstacle.
func (e *glosEngine) zoneNaive(read func(int) float64, d, bnd, h int) ([]float64, int) {
	lo, hi := bnd-e.drop*h, bnd+e.r*h
	row := scratch.Floats(hi - lo + 1)
	for j := lo; j <= hi; j++ {
		row[j-lo] = read(j)
	}
	b := bnd
	for t := 1; t <= h; t++ {
		row = linstencil.Step(row, e.s) // now columns [lo, bnd+r*(h-t)]
		// The boundary drops at most e.drop per interior step and is
		// clamped at -1: columns below 0 are virtual filler (no real cell
		// ever reads them, since dependencies point right) and must never
		// be counted as green.
		newB := max(b-e.drop, -1)
		for i, lin := range row {
			j := lo + i
			if g := e.green(d+t, j); g > lin {
				row[i] = g
				if j >= 0 && j > newB {
					newB = j
				}
			}
		}
		e.stats.addNaive(len(row))
		b = newB
	}
	return row, b
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
// no rightward boundary moves after depth 1, and drops of at most one per
// interior step. It returns the boundary per depth or the first violation.
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
