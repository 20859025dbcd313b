package trace

import "github.com/nlstencil/amop/internal/cachesim"

// GLSpec describes a centered green-left nonlinear stencil instance for the
// traced kernels; it mirrors fbstencil.GreenLeft.
type GLSpec struct {
	W        []float64 // offsets -1, 0, +1
	T        int
	Lo0, Hi0 int
	Init     func(col int) float64
	Green    func(depth, col int) float64
	Bnd0     int
	Base     int
}

// NaiveGL replays the projected explicit FD sweep over the full cone (the
// vanilla-bsm baseline): ping-pong row buffers, every cell touched.
func NaiveGL(h *cachesim.Hierarchy, s *GLSpec) float64 {
	width := s.Hi0 - s.Lo0 + 1
	cur := h.NewF64(width)
	next := h.NewF64(width)
	for k := 0; k < width; k++ {
		v := s.Init(s.Lo0 + k)
		cur.Set(k, v)
		h.AddFlops(flopsPerExp)
	}
	for d := 1; d <= s.T; d++ {
		lo, hi := s.Lo0+d, s.Hi0-d
		for k := lo; k <= hi; k++ {
			i := k - (s.Lo0 + d - 1)
			lin := s.W[0]*cur.Get(i-1) + s.W[1]*cur.Get(i) + s.W[2]*cur.Get(i+1)
			if g := s.Green(d, k); g > lin {
				lin = g
			}
			next.Set(k-lo, lin)
			h.AddFlops(flopsPerCell + 2)
		}
		cur, next = next, cur
	}
	return cur.Get(0)
}

// FastGL replays the paper's FFT-based BSM solver serially on traced memory.
// It keeps the centered indexing of the paper's Figure 4b for the Figure
// 6/7/10 replays; the production solver (fbstencil.SolveGreenLeftOneSided
// on depth-shifted columns c-d) cuts the same trapezoids up to that shift.
func FastGL(h *cachesim.Hierarchy, s *GLSpec) float64 {
	e := &glTrace{engine: newEngine(h), s: s, base: s.Base}
	if e.base <= 0 {
		e.base = 8
	}
	apex := s.Lo0 + s.T

	bnd := s.Bnd0
	var seg cachesim.F64
	if bnd < s.Hi0 {
		from := max(bnd+1, s.Lo0)
		bnd = from - 1
		seg = h.NewF64(s.Hi0 - from + 1)
		for j := 0; j < seg.Len(); j++ {
			seg.Set(j, s.Init(from+j))
			h.AddFlops(flopsPerExp)
		}
	} else {
		bnd = s.Hi0
	}

	d := 0
	if s.T >= 1 {
		seg, bnd = e.exactFirstStep(seg, bnd)
		d = 1
	}
	for d < s.T {
		if bnd >= e.hi(d) {
			return s.Green(s.T, apex)
		}
		remaining := s.T - d
		if bnd < e.lo(d) {
			out := e.evolveCone(seg, -1, s.W, remaining)
			return out.Get(e.lo(d) - (bnd + 1))
		}
		hh := min(remaining/2, (e.hi(d)-bnd)/2)
		if hh < e.base {
			seg, bnd = e.naiveStep(seg, bnd, d)
			d++
			continue
		}
		read := e.read(seg, bnd, d)
		zoneVals, newBnd := e.zone(read, d, bnd, hh)
		in := e.h.NewF64(e.hi(d) - bnd + 1)
		in.Set(0, s.Green(d, bnd))
		e.h.AddFlops(flopsPerExp)
		for i := 0; i < seg.Len(); i++ {
			in.Set(1+i, seg.Get(i))
		}
		rightVals := e.evolveCone(in, -1, s.W, hh)
		newHi := e.hi(d + hh)
		newSeg := e.h.NewF64(newHi - newBnd)
		for j := newBnd + 1; j <= bnd+hh; j++ {
			newSeg.Set(j-newBnd-1, zoneVals.Get(j-(bnd-hh)))
		}
		for i := 1; i < rightVals.Len(); i++ {
			newSeg.Set(bnd+hh+i-(newBnd+1), rightVals.Get(i))
		}
		seg, bnd = newSeg, newBnd
		d += hh
	}
	if apex > bnd {
		return seg.Get(apex - (bnd + 1))
	}
	return s.Green(s.T, apex)
}

type glTrace struct {
	*engine
	s    *GLSpec
	base int
}

func (e *glTrace) lo(depth int) int { return e.s.Lo0 + depth }
func (e *glTrace) hi(depth int) int { return e.s.Hi0 - depth }

func (e *glTrace) read(seg cachesim.F64, bnd, depth int) func(col int) float64 {
	return func(col int) float64 {
		if col > bnd {
			return seg.Get(col - bnd - 1)
		}
		e.h.AddFlops(flopsPerExp)
		return e.s.Green(depth, col)
	}
}

func (e *glTrace) exactFirstStep(seg cachesim.F64, bnd int) (cachesim.F64, int) {
	read := e.read(seg, bnd, 0)
	lo1, hi1 := e.lo(1), e.hi(1)
	n := hi1 - lo1 + 1
	if n <= 0 {
		return seg, bnd
	}
	vals := e.h.NewF64(n)
	newBnd := lo1 - 1
	for idx := 0; idx < n; idx++ {
		j := lo1 + idx
		lin := e.s.W[0]*read(j-1) + e.s.W[1]*read(j) + e.s.W[2]*read(j+1)
		g := e.s.Green(1, j)
		if g > lin {
			vals.Set(idx, g)
			newBnd = j
		} else {
			vals.Set(idx, lin)
		}
		e.h.AddFlops(flopsPerCell + flopsPerExp)
	}
	return vals.Slice(newBnd+1-lo1, n), newBnd
}

func (e *glTrace) naiveStep(seg cachesim.F64, bnd, d int) (cachesim.F64, int) {
	read := e.read(seg, bnd, d)
	newHi := e.hi(d + 1)
	lo := max(bnd, e.lo(d+1))
	next := e.h.NewF64(newHi - lo + 1)
	newBnd := bnd - 1
	if bnd < e.lo(d+1) {
		newBnd = bnd
	}
	for j := lo; j <= newHi; j++ {
		lin := e.s.W[0]*read(j-1) + e.s.W[1]*read(j) + e.s.W[2]*read(j+1)
		g := e.s.Green(d+1, j)
		if g > lin {
			next.Set(j-lo, g)
			if j > newBnd {
				newBnd = j
			}
		} else {
			next.Set(j-lo, lin)
		}
		e.h.AddFlops(flopsPerCell + flopsPerExp)
	}
	if trim := newBnd + 1 - lo; trim > 0 {
		next = next.Slice(trim, next.Len())
	}
	return next, newBnd
}

func (e *glTrace) zone(read func(int) float64, d, bnd, hh int) (cachesim.F64, int) {
	if hh <= e.base {
		return e.zoneNaive(read, d, bnd, hh)
	}
	h1 := hh / 2
	h2 := hh - h1

	midZone, midBnd := e.zone(read, d, bnd, h1)
	in := e.h.NewF64(2*hh + 1)
	for j := 0; j <= 2*hh; j++ {
		in.Set(j, read(bnd+j))
	}
	midRight := e.evolveCone(in, -1, e.s.W, h1)

	midRead := func(col int) float64 {
		switch {
		case col <= midBnd:
			e.h.AddFlops(flopsPerExp)
			return e.s.Green(d+h1, col)
		case col <= bnd+h1:
			return midZone.Get(col - (bnd - h1))
		default:
			return midRight.Get(col - (bnd + h1))
		}
	}

	botZone, newBnd := e.zone(midRead, d+h1, midBnd, h2)
	n := bnd + 2*hh - h1 - midBnd + 1
	in2 := e.h.NewF64(n)
	for j := 0; j < n; j++ {
		in2.Set(j, midRead(midBnd+j))
	}
	botRight := e.evolveCone(in2, -1, e.s.W, h2)

	out := e.h.NewF64(2*hh + 1)
	for j := bnd - hh; j <= bnd+hh; j++ {
		switch {
		case j <= newBnd:
			e.h.AddFlops(flopsPerExp)
			out.Set(j-(bnd-hh), e.s.Green(d+hh, j))
		case j <= midBnd+h2:
			out.Set(j-(bnd-hh), botZone.Get(j-(midBnd-h2)))
		default:
			out.Set(j-(bnd-hh), botRight.Get(j-(midBnd+h2)))
		}
	}
	return out, newBnd
}

func (e *glTrace) zoneNaive(read func(int) float64, d, bnd, hh int) (cachesim.F64, int) {
	lo, hi := bnd-2*hh, bnd+2*hh
	cur := e.h.NewF64(hi - lo + 1)
	for j := lo; j <= hi; j++ {
		cur.Set(j-lo, read(j))
	}
	b := bnd
	for t := 1; t <= hh; t++ {
		nlo, nhi := lo+1, hi-1
		next := e.h.NewF64(nhi - nlo + 1)
		newB := b - 1
		for j := nlo; j <= nhi; j++ {
			lin := e.s.W[0]*cur.Get(j-1-lo) + e.s.W[1]*cur.Get(j-lo) + e.s.W[2]*cur.Get(j+1-lo)
			g := e.s.Green(d+t, j)
			if g > lin {
				next.Set(j-nlo, g)
				if j > newB {
					newB = j
				}
			} else {
				next.Set(j-nlo, lin)
			}
			e.h.AddFlops(flopsPerCell + flopsPerExp)
		}
		cur, lo, hi, b = next, nlo, nhi, newB
	}
	return cur, b
}
