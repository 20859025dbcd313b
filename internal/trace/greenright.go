package trace

import "github.com/nlstencil/amop/internal/cachesim"

// GRSpec describes a one-sided (green-right) nonlinear stencil instance for
// the traced direct sweeps, with the fields of fbstencil.GreenRight: the
// lattice calls in the paper's indexing, as internal/sweep solves them.
type GRSpec struct {
	W     []float64
	T     int
	Hi0   int
	Init  func(col int) float64
	Green func(depth, col int) float64
}

func (s *GRSpec) span() int { return len(s.W) - 1 }

// NaiveGR replays the standard nested loop (Figure 1 / ql-style baseline):
// a single row buffer updated in place, every cell of the triangle touched.
func NaiveGR(h *cachesim.Hierarchy, s *GRSpec) float64 {
	r := s.span()
	row := h.NewF64(s.Hi0 + 1)
	for j := 0; j <= s.Hi0; j++ {
		row.Set(j, s.Init(j))
		h.AddFlops(flopsPerExp)
	}
	for d := 1; d <= s.T; d++ {
		hi := s.Hi0 - d*r
		for j := 0; j <= hi; j++ {
			var lin float64
			for i, w := range s.W {
				lin += w * row.Get(j+i)
			}
			if g := s.Green(d, j); g > lin {
				lin = g
			}
			row.Set(j, lin)
			h.AddFlops(flopsPerCell + 2) // incremental exercise: one mul
		}
	}
	return row.Get(0)
}

// TiledGR replays the cache-aware split-tiled sweep (zb-style baseline),
// mirroring sweep.Tiled's buffers and halos.
func TiledGR(h *cachesim.Hierarchy, s *GRSpec, tileW, tileH int) float64 {
	r := s.span()
	if tileW <= 0 {
		tileW = 2048
	}
	if tileW <= 2*r {
		tileW = 2*r + 1
	}
	if tileH <= 0 {
		tileH = tileW / (4 * r)
		if tileH < 1 {
			tileH = 1
		}
	}
	if tileH*r >= tileW {
		tileH = (tileW - 1) / r
	}

	row := h.NewF64(s.Hi0 + 1)
	for j := 0; j <= s.Hi0; j++ {
		row.Set(j, s.Init(j))
		h.AddFlops(flopsPerExp)
	}
	depth := 0
	for depth < s.T {
		hh := min(tileH, s.T-depth)
		row = tiledBandGR(h, s, row, depth, hh, tileW, r)
		depth += hh
	}
	return row.Get(0)
}

func tiledBandGR(h *cachesim.Hierarchy, s *GRSpec, row cachesim.F64, depth, hh, w, r int) cachesim.F64 {
	topHi := row.Len() - 1
	botHi := topHi - hh*r
	out := h.NewF64(botHi + 1)
	numTiles := max((topHi+1)/w, 1)
	tileLo := func(k int) int { return k * w }
	tileHi := func(k int) int {
		if k == numTiles-1 {
			return topHi
		}
		return (k+1)*w - 1
	}

	haloL := make([]cachesim.F64, numTiles)
	haloR := make([]cachesim.F64, numTiles)
	for k := 0; k < numTiles; k++ {
		a, b := tileLo(k), tileHi(k)
		n := b - a + 1
		buf := h.NewF64(n)
		for j := 0; j < n; j++ {
			buf.Set(j, row.Get(a+j))
		}
		hl := h.NewF64(hh * r)
		hr := h.NewF64(hh * r)
		for t := 1; t <= hh; t++ {
			for i := 0; i < r; i++ {
				hl.Set((t-1)*r+i, buf.Get(i))
				hr.Set((t-1)*r+i, buf.Get(n-r+i))
			}
			n -= r
			for j := 0; j < n; j++ {
				var lin float64
				for i, wi := range s.W {
					lin += wi * buf.Get(j+i)
				}
				if g := s.Green(depth+t, a+j); g > lin {
					lin = g
				}
				buf.Set(j, lin)
				h.AddFlops(flopsPerCell + 2)
			}
			buf = buf.Slice(0, n)
		}
		haloL[k], haloR[k] = hl, hr
		for j := 0; j < n; j++ {
			out.Set(a+j, buf.Get(j))
		}
	}

	for k := 0; k < numTiles-1; k++ {
		b := tileHi(k)
		var tri cachesim.F64
		for t := 1; t <= hh; t++ {
			width := r * t
			src := h.NewF64(width + r)
			for i := 0; i < r; i++ {
				src.Set(i, haloR[k].Get((t-1)*r+i))
			}
			for i := 0; i < width-r; i++ {
				src.Set(r+i, tri.Get(i))
			}
			for i := 0; i < r; i++ {
				src.Set(width+i, haloL[k+1].Get((t-1)*r+i))
			}
			next := h.NewF64(width)
			lo := b - width + 1
			for j := 0; j < width; j++ {
				var lin float64
				for i, wi := range s.W {
					lin += wi * src.Get(j+i)
				}
				if g := s.Green(depth+t, lo+j); g > lin {
					lin = g
				}
				next.Set(j, lin)
				h.AddFlops(flopsPerCell + 2)
			}
			tri = next
		}
		for j := 0; j < hh*r; j++ {
			out.Set(b-hh*r+1+j, tri.Get(j))
		}
	}
	return out
}
