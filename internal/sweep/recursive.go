package sweep

import "github.com/nlstencil/amop/internal/scratch"

// Recursive is the cache-oblivious trapezoidal-decomposition sweep of Frigo &
// Strumpen (the "recursive tiling" baseline of the paper's Table 2), adapted
// to the right-leaning dependency cone of the pricing grids and to the
// nonlinear max-update.
//
// The space-time region is walked recursively on a single row buffer. A
// region is described by depths (t0, t1] and column lines: at depth t it
// covers [cl - sl*t, cr - r*t], where the left-edge slope sl is 0 (vertical)
// or r (parallel to the dependency cone). Wide regions are split by a cut
// line of slope -r through the bottom midpoint — the left piece is walked
// first, after which the buffer columns under the cut hold exactly the
// per-depth freshest values the right piece's leftmost cells need. Tall
// regions are split in time. The recursion keeps the working set of each
// base-case block small at every cache level simultaneously, without knowing
// cache sizes — that is what "cache-oblivious" buys.
func Recursive(p *Problem) float64 {
	row := p.leafRow()
	ex := scratch.Floats(exChunk)
	w := rwalk{p: p, r: len(p.W) - 1, row: row, ex: ex}
	w.walk(0, p.T, 0, 0, p.Hi0)
	v := row[0]
	scratch.PutFloats(ex)
	scratch.PutFloats(row)
	return v
}

// recursiveBaseHeight is the height below which a region is swept row by
// row. It bounds recursion overhead; correctness never depends on it.
const recursiveBaseHeight = 24

type rwalk struct {
	p       *Problem
	r       int
	row, ex []float64
}

// walk processes depths (t0, t1] of the region [cl - sl*t, cr - r*t].
func (w *rwalk) walk(t0, t1, cl, sl, cr int) {
	h := t1 - t0
	if h <= 0 {
		return
	}
	if h <= recursiveBaseHeight {
		for t := t0 + 1; t <= t1; t++ {
			lo := cl - sl*t
			hi := cr - w.r*t
			if lo <= hi {
				w.p.advance(w.row[lo:hi+1], w.row[lo:], w.ex, t, lo)
			}
		}
		return
	}
	bottomLo := cl - sl*t1
	bottomHi := cr - w.r*t1
	if bottomHi-bottomLo+1 >= 4*w.r*h {
		// Space cut through the bottom midpoint with slope -r.
		mid := (bottomLo + bottomHi) / 2
		ccut := mid + w.r*t1
		w.walk(t0, t1, cl, sl, ccut)    // left piece first
		w.walk(t0, t1, ccut+1, w.r, cr) // right piece reads the left's frozen columns
		return
	}
	tm := t0 + h/2
	w.walk(t0, tm, cl, sl, cr)
	w.walk(tm, t1, cl, sl, cr)
}
