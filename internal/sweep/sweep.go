// Package sweep implements the Theta(T^2)-work baseline algorithms the paper
// compares against, for one-sided nonlinear stencils on the triangular
// option-pricing grid:
//
//   - Naive / NaiveParallel: the standard nested loop of Figure 1 (the
//     QuantLib-style baseline, "ql-bopm" in the paper's legend);
//   - Tiled: a cache-aware split-tiled sweep in the spirit of Zubair &
//     Mukkamala's cache-optimized binomial pricing ("zb-bopm");
//   - Recursive: the cache-oblivious trapezoidal decomposition of Frigo &
//     Strumpen (the "recursive tiling" row of the paper's Table 2).
//
// All four compute every cell of the grid with the max-update, so they make
// no use of the red/green boundary structure, and all four advance cells
// through one row kernel. The grid convention matches internal/fbstencil:
// depth 0 is the initial (expiry) row on columns [0, Hi0]; at depth d the
// valid columns are [0, Hi0-d*r]; the answer is the apex cell (T, 0).
//
// The sweeps serve the lattices of internal/lattice: the two trees and the
// Black-Scholes put grid (internal/bsm), whose centered stencil is one-sided
// in depth-shifted columns. With Problem.Record set they report every step
// they take, which is how internal/trace replays the baselines of Figures 6,
// 7 and 10.
package sweep

import (
	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/scratch"
)

// Problem describes one instance for the baseline sweeps.
type Problem struct {
	W   []float64 // stencil weights on offsets 0..r of the previous depth, r = 1 or 2
	T   int       // number of steps
	Hi0 int       // last column of the initial row (Hi0 >= T*r)
	// Leaf returns the initial row value at the given column.
	Leaf func(col int) float64
	// FillExercise returns the exercise (obstacle) values of cells
	// (depth, lo..hi): a view of a table, or its buf argument filled. A nil
	// FillExercise selects the purely linear (European) sweep with no max.
	FillExercise fbstencil.FillFunc
	// Record, when non-nil, receives the sweep's steps in order: the
	// initial row as an EventFill, each further buffer the sweep takes as an
	// EventAlloc, and then, written in place, each row update of up to
	// exChunk cells as an EventSweep and each copy between buffers as an
	// EventCopy. The events carry the sweep's own buffers. A recorded sweep
	// runs serially.
	Record func(fbstencil.Event)
	// Top, when non-nil, receives from Naive columns [0, len(Top)) of the
	// row at depth T-fbstencil.TopSteps(r): the oracle of the fast solver's
	// own Top.
	Top []float64
}

// exChunk is the column-chunk granularity used to amortize FillExercise
// calls. The chunk buffer a filling FillExercise writes comes from the
// scratch pools, not the stack: FillExercise is a func value, so a stack
// array passed to it escapes, one allocation per call.
const exChunk = 512

// leafRow materializes the initial row into a pooled buffer; callers recycle
// it when the sweep is done.
func (p *Problem) leafRow() []float64 {
	row := scratch.Floats(p.Hi0 + 1)
	for j := range row {
		row[j] = p.Leaf(j)
	}
	if p.Record != nil {
		p.Record(fbstencil.Event{Kind: fbstencil.EventFill, Dst: row})
	}
	return row
}

// alloc takes a pooled buffer of n cells and reports it.
func (p *Problem) alloc(n int) []float64 {
	buf := scratch.Floats(n)
	if p.Record != nil {
		p.Record(fbstencil.Event{Kind: fbstencil.EventAlloc, Dst: buf})
	}
	return buf
}

// advance computes the cells of columns [lo, lo+len(dst)) at the given
// depth into dst from src, which holds depth-1 from column lo on, with ex
// (exChunk long) as the exercise chunk. dst may start at src[0]: in-place
// ascending order is safe because dependencies point right.
func (p *Problem) advance(dst, src, ex []float64, depth, lo int) {
	for c := 0; c < len(dst); c += exChunk {
		ce := min(c+exChunk, len(dst))
		var e []float64
		if p.FillExercise != nil {
			e = p.FillExercise(depth, lo+c, lo+ce-1, ex[:ce-c])
		}
		stepRow(dst[c:ce], src[c:], e, p.W)
		if p.Record != nil {
			p.Record(fbstencil.Event{Kind: fbstencil.EventSweep, Src: src[c : ce+len(p.W)-1], Dst: dst[c:ce], W: p.W, InPlace: true})
		}
	}
}

// copyCells copies src into dst and reports the copy.
func (p *Problem) copyCells(dst, src []float64) {
	n := copy(dst, src)
	if p.Record != nil {
		p.Record(fbstencil.Event{Kind: fbstencil.EventCopy, Src: src[:n], Dst: dst[:n], InPlace: true})
	}
}

// stepRow is the row kernel of every sweep: dst[j] = max(sum_o w[o]*src[j+o],
// ex[j]) for j in [0, len(dst)), or the sum alone if ex is nil, for spans
// 1 and 2. dst may start at src[0]: cell j reads src[j..j+r], none of which
// an ascending pass has overwritten yet. The max is fbstencil.StepObstacle,
// the fast solver's direct step; the sum adds the terms in offset order.
func stepRow(dst, src, ex, w []float64) {
	if len(w) != 2 && len(w) != 3 {
		panic("sweep: the stencil spans 1 or 2 columns")
	}
	if ex != nil {
		fbstencil.StepObstacle(dst, src, ex, w, -1)
		return
	}
	n := len(dst)
	if len(w) == 2 {
		w0, w1 := w[0], w[1]
		s0, s1 := src[:n], src[1:n+1]
		for j := range dst {
			dst[j] = w0*s0[j] + w1*s1[j]
		}
		return
	}
	w0, w1, w2 := w[0], w[1], w[2]
	s0, s1, s2 := src[:n], src[1:n+1], src[2:n+2]
	for j := range dst {
		dst[j] = w0*s0[j] + w1*s1[j] + w2*s2[j]
	}
}

// Naive is the serial nested loop (Figure 1 of the paper): one row buffer,
// updated in place from the expiry row down to the apex.
func Naive(p *Problem) float64 {
	r := len(p.W) - 1
	row := p.leafRow()
	ex := scratch.Floats(exChunk)
	topD := p.T - fbstencil.TopSteps(r)
	for d := 1; d <= p.T; d++ {
		if d-1 == topD {
			copy(p.Top, row)
		}
		p.advance(row[:p.Hi0-d*r+1], row, ex, d, 0)
	}
	v := row[0]
	scratch.PutFloats(ex)
	scratch.PutFloats(row)
	return v
}

// NaiveParallel is the row-parallel nested loop: each row is computed from
// the previous across persistent workers, giving Theta(T^2/p + T log T)
// time — the structure of the paper's ql-bopm baseline.
func NaiveParallel(p *Problem) float64 {
	r := len(p.W) - 1
	var rows [2][]float64
	rows[0] = p.leafRow()
	rows[1] = p.alloc(len(rows[0]))
	width := func(row int) int { return p.Hi0 - (row+1)*r + 1 }
	body := func(row, lo, hi int) {
		ex := scratch.Floats(exChunk)
		p.advance(rows[1-row&1][lo:hi], rows[row&1][lo:], ex, row+1, lo)
		scratch.PutFloats(ex)
	}
	if p.Record != nil {
		for row := 0; row < p.T; row++ {
			body(row, 0, width(row))
		}
	} else {
		par.RowSweep(p.T, width, body)
	}
	v := rows[p.T&1][0]
	scratch.PutFloats(rows[0])
	scratch.PutFloats(rows[1])
	return v
}
