package sweep

import (
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/scratch"
)

// Tiled is the cache-aware split-tiled sweep (the paper's zb-bopm analogue,
// after Zubair & Mukkamala). The grid is processed in horizontal bands of
// tileH steps. Within a band, phase A advances vertical tiles of width tileW
// independently in parallel — each tile shrinks from the right by r columns
// per step, so it only touches its own cache-resident buffer — while
// recording r-column halos along its edges. Phase B then fills the inverted
// triangles between adjacent tiles from those halos, again in parallel.
//
// tileW/tileH <= 0 select defaults sized so a tile's working set fits in a
// 32 KB L1 cache.
func Tiled(p *Problem, tileW, tileH int) float64 {
	r := len(p.W) - 1
	if tileW <= 0 {
		tileW = 2048 // 16 KB of float64: half of a 32 KB L1
	}
	if tileW <= 2*r {
		tileW = 2*r + 1
	}
	if tileH <= 0 {
		tileH = max(tileW/(4*r), 1)
	}
	// A tile must stay wider than it shrinks over a band.
	if tileH*r >= tileW {
		tileH = (tileW - 1) / r
	}

	row := p.leafRow()
	depth := 0
	for depth < p.T {
		h := min(tileH, p.T-depth)
		old := row
		row = p.tiledBand(row, depth, h, tileW, r)
		scratch.PutFloats(old)
		depth += h
	}
	v := row[0]
	scratch.PutFloats(row)
	return v
}

// tiledBand advances row (columns [0, len(row)-1] at the given depth) by h
// steps and returns the new row. Band rows, per-tile working buffers, and
// the halo strips all cycle through the scratch pools, so a full sweep
// reaches steady state after its first band.
func (p *Problem) tiledBand(row []float64, depth, h, w, r int) []float64 {
	topHi := len(row) - 1
	botHi := topHi - h*r
	out := p.alloc(botHi + 1)

	numTiles := max((topHi+1)/w, 1)
	tileLo := func(k int) int { return k * w }
	tileHi := func(k int) int { // last tile absorbs the remainder
		if k == numTiles-1 {
			return topHi
		}
		return (k+1)*w - 1
	}

	// haloL[k]/haloR[k] hold the leftmost/rightmost r columns of tile k's
	// region at each depth offset t in [0, h), i.e. the values consumed by
	// the phase-B triangles at the tile boundaries.
	haloL := make([][]float64, numTiles)
	haloR := make([][]float64, numTiles)

	forTiles := par.For
	if p.Record != nil {
		forTiles = func(n, _ int, body func(lo, hi int)) { body(0, n) }
	}

	// Phase A: independent shrinking tiles.
	forTiles(numTiles, 1, func(klo, khi int) {
		ex := scratch.Floats(exChunk)
		for k := klo; k < khi; k++ {
			a, b := tileLo(k), tileHi(k)
			buf := p.alloc(b - a + 1)
			p.copyCells(buf, row[a:b+1])
			hl := p.alloc(h * r)
			hr := p.alloc(h * r)
			for t := 1; t <= h; t++ {
				p.copyCells(hl[(t-1)*r:t*r], buf[:r])
				p.copyCells(hr[(t-1)*r:t*r], buf[len(buf)-r:])
				p.advance(buf[:len(buf)-r], buf, ex, depth+t, a)
				buf = buf[:len(buf)-r]
			}
			haloL[k], haloR[k] = hl, hr
			p.copyCells(out[a:], buf) // bottom columns [a, b-h*r]
			scratch.PutFloats(buf)
		}
		scratch.PutFloats(ex)
	})

	// Phase B: inverted triangles across interior tile boundaries. The
	// triangle at boundary b = tileHi(k) covers columns [b-r*t+1, b] at
	// depth offset t; its dependencies are the previous triangle row plus
	// tile k's right halo and tile k+1's left halo.
	forTiles(numTiles-1, 1, func(klo, khi int) {
		ex := scratch.Floats(exChunk)
		src := p.alloc((h + 1) * r)
		tri := p.alloc(h * r)
		for k := klo; k < khi; k++ {
			b := tileHi(k)
			for t := 1; t <= h; t++ {
				// s covers columns [b-width+1, b+r] at depth offset t-1.
				width := r * t
				s := src[:width+r]
				p.copyCells(s, haloR[k][(t-1)*r:t*r])
				p.copyCells(s[r:], tri[:width-r])
				p.copyCells(s[width:], haloL[k+1][(t-1)*r:t*r])
				p.advance(tri[:width], s, ex, depth+t, b-width+1)
			}
			p.copyCells(out[b-h*r+1:], tri)
		}
		scratch.PutFloats(tri)
		scratch.PutFloats(src)
		scratch.PutFloats(ex)
	})
	for k := range haloL {
		scratch.PutFloats(haloL[k])
		scratch.PutFloats(haloR[k])
	}
	return out
}
