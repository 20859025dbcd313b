package topm

import (
	"errors"
	"math"
	"testing"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/option"
)

// FuzzFast drives the fast American call (the fast put of the swapped
// contract) and the fast American put with arbitrary contracts and step
// counts up to 300, at any base case up to fbstencil.DefaultBaseCase (0 is
// the default), and requires each, and each cell of its top row (FastTop),
// to agree with the direct sweep to 1e-9 relative. Contracts New rejects are
// skipped. Where the lattice overflows float64 the sweep's price is not
// finite and there is nothing to compare: the fast solve may then fail, but
// only with ErrNonFinite.
func FuzzFast(f *testing.F) {
	f.Add(127.62, 130.0, 0.00163, 0.2, 0.0163, 1.0, uint16(300), uint8(0))
	f.Add(100.0, 100.0, 0.05, 0.3, 0.02, 1.0, uint16(64), uint8(1))
	f.Add(400.0, 50.0, 0.03, 0.2, 0.01, 1.0, uint16(257), uint8(8))
	f.Add(10.0, 300.0, 0.05, 0.2, 0.0, 0.5, uint16(17), uint8(0))
	f.Add(100.0, 95.0, 0.01, 0.25, 0.08, 2.0, uint16(1), uint8(2))
	f.Add(100.0, 110.0, 0.05, 2.0, 0.03, 1.0, uint16(299), uint8(16))
	f.Add(114.0, 136.0, 11.0064, 34.25, 9.2231, 2.175, uint16(0), uint8(0))     // New would round the swapped p_o to 0
	f.Add(461.34, 0.8148, 328.04, 322.69, 61.836, 270.0, uint16(110), uint8(5)) // u overflows: the swapped weights are not finite
	f.Fuzz(func(t *testing.T, s, k, r, v, y, e float64, steps uint16, base uint8) {
		p := option.Params{S: s, K: k, R: r, V: v, Y: y, E: e}
		m, err := New(p, 1+int(steps)%300)
		if err != nil {
			t.Skip()
		}
		baseCase := int(base) % (fbstencil.DefaultBaseCase + 1)
		m.SetBaseCase(baseCase)
		var top, want []float64
		if m.HasTop() {
			top, want = make([]float64, 3), make([]float64, 3)
		}
		for _, kind := range []option.Kind{option.Call, option.Put} {
			fast, err := m.FastTop(kind, nil, top)
			naive := m.NaiveTop(kind, want)
			if math.IsNaN(naive) || math.IsInf(naive, 0) {
				if err != nil && !errors.Is(err, fbstencil.ErrNonFinite) {
					t.Fatalf("%v %+v T=%d: %v", kind, p, m.T, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%v %+v T=%d: %v (naive %.17g)", kind, p, m.T, err, naive)
			}
			tol := 1e-9 * math.Max(1, math.Abs(naive))
			if d := math.Abs(fast - naive); !(d <= tol) {
				t.Fatalf("%v %+v T=%d base=%d: fast %.17g, naive %.17g", kind, p, m.T, baseCase, fast, naive)
			}
			for j := range want {
				if d := math.Abs(top[j] - want[j]); !(d <= 1e-9*math.Max(1, math.Abs(want[j]))) {
					t.Fatalf("%v %+v T=%d base=%d: top[%d] fast %.17g, naive %.17g", kind, p, m.T, baseCase, j, top[j], want[j])
				}
			}
		}
	})
}
