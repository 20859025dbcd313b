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
	out := scratch.Floats(botHi + 1)

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

	// Phase A: independent shrinking tiles.
	par.For(numTiles, 1, func(klo, khi int) {
		ex := scratch.Floats(exChunk)
		for k := klo; k < khi; k++ {
			a, b := tileLo(k), tileHi(k)
			buf := scratch.Floats(b - a + 1)
			copy(buf, row[a:b+1])
			hl := scratch.Floats(h * r)
			hr := scratch.Floats(h * r)
			for t := 1; t <= h; t++ {
				copy(hl[(t-1)*r:t*r], buf[:r])
				copy(hr[(t-1)*r:t*r], buf[len(buf)-r:])
				newLen := len(buf) - r
				for c := 0; c < newLen; c += exChunk {
					ce := min(c+exChunk, newLen) - 1
					if p.FillExercise != nil {
						p.FillExercise(depth+t, a+c, a+ce, ex[:ce-c+1])
					}
					for j := c; j <= ce; j++ {
						var lin float64
						for o := 0; o <= r; o++ {
							lin += p.W[o] * buf[j+o]
						}
						if p.FillExercise != nil && ex[j-c] > lin {
							lin = ex[j-c]
						}
						buf[j] = lin
					}
				}
				buf = buf[:newLen]
			}
			haloL[k], haloR[k] = hl, hr
			copy(out[a:], buf) // bottom columns [a, b-h*r]
			scratch.PutFloats(buf)
		}
		scratch.PutFloats(ex)
	})

	// Phase B: inverted triangles across interior tile boundaries. The
	// triangle at boundary b = tileHi(k) covers columns [b-r*t+1, b] at
	// depth offset t; its dependencies are the previous triangle row plus
	// tile k's right halo and tile k+1's left halo.
	par.For(numTiles-1, 1, func(klo, khi int) {
		ex := scratch.Floats(exChunk)
		src := make([]float64, 0, (h+1)*r)
		tri := make([]float64, 0, h*r)
		for k := klo; k < khi; k++ {
			b := tileHi(k)
			tri = tri[:0]
			for t := 1; t <= h; t++ {
				// src covers columns [b-r*t+1, b+r] at depth offset t-1.
				src = src[:0]
				src = append(src, haloR[k][(t-1)*r:t*r]...)
				src = append(src, tri...)
				src = append(src, haloL[k+1][(t-1)*r:t*r]...)
				width := r * t
				lo := b - width + 1
				tri = tri[:width]
				for c := 0; c < width; c += exChunk {
					ce := min(c+exChunk, width) - 1
					if p.FillExercise != nil {
						p.FillExercise(depth+t, lo+c, lo+ce, ex[:ce-c+1])
					}
					for j := c; j <= ce; j++ {
						var lin float64
						for o := 0; o <= r; o++ {
							lin += p.W[o] * src[j+o]
						}
						if p.FillExercise != nil && ex[j-c] > lin {
							lin = ex[j-c]
						}
						tri[j] = lin
					}
				}
			}
			copy(out[b-h*r+1:], tri)
		}
		scratch.PutFloats(ex)
	})
	for k := range haloL {
		scratch.PutFloats(haloL[k])
		scratch.PutFloats(haloR[k])
	}
	return out
}
