package bsm

import (
	"math"
	"testing"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/option"
)

// FuzzBSMPutFast drives the fast American put with arbitrary contracts,
// step counts up to 300 and base cases up to fbstencil.DefaultBaseCase (0
// is the default), and requires it and each cell of its top row (FastTop) to agree with the
// direct sweep of Equation 5 to 1e-9 relative. Contracts New rejects (invalid parameters,
// or scheme coefficients that break Theorem 4.3's positivity) are skipped.
func FuzzBSMPutFast(f *testing.F) {
	f.Add(127.62, 130.0, 0.00163, 0.2, 0.0163, 1.0, uint16(300), uint8(0))
	f.Add(100.0, 100.0, 0.05, 0.3, 0.02, 1.0, uint16(64), uint8(1))
	f.Add(400.0, 50.0, 0.03, 0.2, 0.01, 1.0, uint16(257), uint8(8))
	f.Add(10.0, 300.0, 0.05, 0.2, 0.0, 0.5, uint16(17), uint8(0))
	f.Add(100.0, 95.0, 0.01, 0.25, 0.08, 2.0, uint16(1), uint8(2))
	f.Add(100.0, 105.0, 0.04, 0.35, 0.01, 1.0, uint16(290), uint8(48))
	f.Fuzz(func(t *testing.T, s, k, r, v, y, e float64, steps uint16, base uint8) {
		p := option.Params{S: s, K: k, R: r, V: v, Y: y, E: e}
		m, err := New(p, 1+int(steps)%300, 0)
		if err != nil {
			t.Skip()
		}
		baseCase := int(base) % (fbstencil.DefaultBaseCase + 1)
		m.SetBaseCase(baseCase)
		top, want := make([]float64, 3), make([]float64, 3)
		fast, err := m.FastTop(option.Put, nil, top)
		if err != nil {
			t.Fatalf("%+v T=%d: %v", p, m.T, err)
		}
		naive := m.NaiveTop(option.Put, want)
		if d := math.Abs(fast - naive); !(d <= 1e-9*math.Max(1, math.Abs(naive))) {
			t.Fatalf("%+v T=%d base=%d: fast %.17g, naive %.17g", p, m.T, baseCase, fast, naive)
		}
		for j := range want {
			if d := math.Abs(top[j] - want[j]); !(d <= 1e-9*math.Max(1, math.Abs(want[j]))) {
				t.Fatalf("%+v T=%d base=%d: top[%d] fast %.17g, naive %.17g", p, m.T, baseCase, j, top[j], want[j])
			}
		}
	})
}
