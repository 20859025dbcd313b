package trace

import "github.com/nlstencil/amop/internal/cachesim"

// GLSpec describes a centered green-left nonlinear stencil instance for the
// traced direct sweep; it mirrors fbstencil.GreenLeft.
type GLSpec struct {
	W        []float64 // offsets -1, 0, +1
	T        int
	Lo0, Hi0 int
	Init     func(col int) float64
	Green    func(depth, col int) float64
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
