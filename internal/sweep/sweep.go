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
// no use of the red/green boundary structure. The grid convention matches
// internal/fbstencil: depth 0 is the initial (expiry) row on columns
// [0, Hi0]; at depth d the valid columns are [0, Hi0-d*r]; the answer is the
// apex cell (T, 0).
package sweep

import (
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/scratch"
)

// Problem describes one instance for the baseline sweeps.
type Problem struct {
	W   []float64 // stencil weights on offsets 0..r of the previous depth
	T   int       // number of steps
	Hi0 int       // last column of the initial row (Hi0 >= T*r)
	// Leaf returns the initial row value at the given column.
	Leaf func(col int) float64
	// FillExercise writes the exercise (obstacle) values of cells
	// (depth, lo..hi) into out[0..hi-lo]. A nil FillExercise selects the
	// purely linear (European) sweep with no max.
	FillExercise func(depth, lo, hi int, out []float64)
}

// exChunk is the column-chunk granularity used to amortize FillExercise
// calls. The chunk buffer comes from the scratch pools, not the stack:
// FillExercise is a func value, so a stack array passed to it escapes, one
// allocation per call.
const exChunk = 512

// leafRow materializes the initial row into a pooled buffer; callers recycle
// it when the sweep is done.
func (p *Problem) leafRow() []float64 {
	row := scratch.Floats(p.Hi0 + 1)
	for j := range row {
		row[j] = p.Leaf(j)
	}
	return row
}

// updateRowInPlace advances columns [lo, hi] of row from depth-1 to depth,
// in place, with ex (exChunk long) as the exercise chunk. In-place ascending
// order is safe because dependencies point right: cell j reads columns
// j..j+r, none of which have been overwritten yet.
func (p *Problem) updateRowInPlace(row, ex []float64, depth, lo, hi int) {
	r := len(p.W) - 1
	if p.FillExercise == nil {
		for j := lo; j <= hi; j++ {
			var lin float64
			for o := 0; o <= r; o++ {
				lin += p.W[o] * row[j+o]
			}
			row[j] = lin
		}
		return
	}
	for c := lo; c <= hi; c += exChunk {
		ce := min(c+exChunk-1, hi)
		p.FillExercise(depth, c, ce, ex[:ce-c+1])
		for j := c; j <= ce; j++ {
			var lin float64
			for o := 0; o <= r; o++ {
				lin += p.W[o] * row[j+o]
			}
			if e := ex[j-c]; e > lin {
				lin = e
			}
			row[j] = lin
		}
	}
}

// Naive is the serial nested loop (Figure 1 of the paper): one row buffer,
// updated in place from the expiry row down to the apex.
func Naive(p *Problem) float64 {
	r := len(p.W) - 1
	row := p.leafRow()
	ex := scratch.Floats(exChunk)
	for d := 1; d <= p.T; d++ {
		p.updateRowInPlace(row, ex, d, 0, p.Hi0-d*r)
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
	rows := make([][]float64, 2)
	rows[0] = p.leafRow()
	rows[1] = scratch.Floats(len(rows[0]))
	par.RowSweep(p.T,
		func(row int) int { return p.Hi0 - (row+1)*r + 1 },
		func(row, lo, hiEx int) {
			d := row + 1
			cur := rows[row&1]
			next := rows[1-row&1]
			ex := scratch.Floats(exChunk)
			for c := lo; c < hiEx; c += exChunk {
				ce := min(c+exChunk, hiEx) - 1
				if p.FillExercise != nil {
					p.FillExercise(d, c, ce, ex[:ce-c+1])
				}
				for j := c; j <= ce; j++ {
					var lin float64
					for o := 0; o <= r; o++ {
						lin += p.W[o] * cur[j+o]
					}
					if p.FillExercise != nil && ex[j-c] > lin {
						lin = ex[j-c]
					}
					next[j] = lin
				}
			}
			scratch.PutFloats(ex)
		})
	v := rows[p.T&1][0]
	scratch.PutFloats(rows[0])
	scratch.PutFloats(rows[1])
	return v
}
