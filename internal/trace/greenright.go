package trace

import "github.com/nlstencil/amop/internal/cachesim"

// GRSpec describes a one-sided (green-right) nonlinear stencil instance for
// the traced kernels, with the fields of fbstencil.GreenRight. The traced
// kernels keep the paper's green-right indexing for the Figure 6/7/10
// replays, while the production pricers solve the swapped contract's put on
// the green-left engine.
type GRSpec struct {
	W     []float64
	T     int
	Hi0   int
	Init  func(col int) float64
	Green func(depth, col int) float64
	Bnd0  int
	Base  int // fast-solver recursion cutoff (0 = 8)
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

// FastGR replays the paper's FFT-based solver for green-right problems (the
// trapezoid decomposition of Section 2.3, serial) on traced memory.
func FastGR(h *cachesim.Hierarchy, s *GRSpec) float64 {
	e := &grTrace{engine: newEngine(h), s: s, base: s.Base}
	if e.base <= 0 {
		e.base = 8
	}
	r := s.span()
	bnd := min(s.Bnd0, s.Hi0)
	var seg cachesim.F64
	if bnd >= 0 {
		seg = h.NewF64(bnd + 1)
		for j := 0; j <= bnd; j++ {
			seg.Set(j, s.Init(j))
			h.AddFlops(flopsPerExp)
		}
	}
	d := 0
	if s.T >= 1 {
		seg, bnd = e.exactFirstStep(seg, bnd)
		d = 1
	}
	for d < s.T {
		if bnd < 0 {
			return s.Green(s.T, 0)
		}
		remaining := s.T - d
		hh := min((bnd+1)/r, remaining)
		if hh >= e.base {
			seg, bnd = e.solveTrap(seg, 0, bnd, d, hh)
			d += hh
			continue
		}
		seg, bnd = e.naiveStep(seg, 0, bnd, d)
		d++
	}
	if bnd < 0 {
		return s.Green(s.T, 0)
	}
	return seg.Get(0)
}

type grTrace struct {
	*engine
	s    *GRSpec
	base int
}

func (e *grTrace) hi(depth int) int { return e.s.Hi0 - depth*e.s.span() }

func (e *grTrace) read(seg cachesim.F64, c0, bnd, depth int) func(col int) float64 {
	return func(col int) float64 {
		if col <= bnd {
			return seg.Get(col - c0)
		}
		e.h.AddFlops(flopsPerExp)
		return e.s.Green(depth, col)
	}
}

func (e *grTrace) exactFirstStep(seg cachesim.F64, bnd int) (cachesim.F64, int) {
	read := e.read(seg, 0, bnd, 0)
	hi1 := e.hi(1)
	if hi1 < 0 {
		return cachesim.F64{}, -1
	}
	vals := e.h.NewF64(hi1 + 1)
	newBnd := -1
	for j := 0; j <= hi1; j++ {
		var lin float64
		for i, w := range e.s.W {
			lin += w * read(j+i)
		}
		g := e.s.Green(1, j)
		if lin >= g {
			vals.Set(j, lin)
			newBnd = j // ascending scan: ends at the largest red column
		} else {
			vals.Set(j, g)
		}
		e.h.AddFlops(flopsPerCell + flopsPerExp)
	}
	if newBnd < 0 {
		return cachesim.F64{}, -1
	}
	return vals.Slice(0, newBnd+1), newBnd
}

func (e *grTrace) naiveStep(seg cachesim.F64, c0, bnd, d int) (cachesim.F64, int) {
	read := e.read(seg, c0, bnd, d)
	cap1 := min(bnd, e.hi(d+1))
	if cap1 < c0 {
		return cachesim.F64{}, c0 - 1
	}
	next := e.h.NewF64(cap1 - c0 + 1)
	newBnd := c0 - 1
	for j := c0; j <= cap1; j++ {
		var lin float64
		for i, w := range e.s.W {
			lin += w * read(j+i)
		}
		g := e.s.Green(d+1, j)
		if lin >= g {
			next.Set(j-c0, lin)
			newBnd = j
		} else {
			next.Set(j-c0, g)
		}
		e.h.AddFlops(flopsPerCell + flopsPerExp)
	}
	if newBnd < cap1 {
		next = next.Slice(0, max(newBnd-c0+1, 0))
	}
	return next, newBnd
}

func (e *grTrace) naiveBlock(seg cachesim.F64, c0, bnd, d, hh int) (cachesim.F64, int) {
	for t := 0; t < hh; t++ {
		seg, bnd = e.naiveStep(seg, c0, bnd, d+t)
		if bnd < c0 {
			return cachesim.F64{}, bnd
		}
	}
	return seg, bnd
}

func (e *grTrace) solveTrap(seg cachesim.F64, c0, bnd, d, hh int) (cachesim.F64, int) {
	if hh <= e.base {
		return e.naiveBlock(seg, c0, bnd, d, hh)
	}
	h1 := (hh + 1) / 2
	h2 := hh - h1
	mid, midBnd := e.halfStep(seg, c0, bnd, d, h1)
	if midBnd < c0 {
		return cachesim.F64{}, midBnd
	}
	if midBnd-c0+1 < e.s.span()*h2 {
		return e.naiveBlock(mid, c0, midBnd, d+h1, h2)
	}
	return e.halfStep(mid, c0, midBnd, d+h1, h2)
}

func (e *grTrace) halfStep(seg cachesim.F64, c0, bnd, d, k int) (cachesim.F64, int) {
	r := e.s.span()
	cut := bnd - r*k
	var left cachesim.F64
	if cut >= c0 {
		left = e.evolveCone(seg.Slice(0, bnd-c0+1), 0, e.s.W, k)
	}
	right, rightBnd := e.solveTrap(seg.Slice(cut+1-c0, bnd-c0+1), cut+1, bnd, d, k)
	if rightBnd <= cut {
		if cut < c0 {
			return cachesim.F64{}, c0 - 1
		}
		return left, cut
	}
	merged := e.h.NewF64(rightBnd - c0 + 1)
	for i := 0; i < left.Len(); i++ {
		merged.Set(i, left.Get(i))
	}
	for i := 0; i < right.Len(); i++ {
		merged.Set(cut+1-c0+i, right.Get(i))
	}
	return merged, rightBnd
}
