package bopm

import (
	"errors"
	"math"
	"testing"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/option"
)

// FuzzFast drives the fast American call (the fast put of the swapped
// contract) and the fast American put with arbitrary contracts and step
// counts up to 300, and requires each to agree with the direct sweep to
// 1e-9 relative. Contracts New rejects are skipped. Where the lattice
// overflows float64 the sweep's price is not finite and there is nothing to
// compare: the fast solve may then fail, but only with ErrNonFinite.
func FuzzFast(f *testing.F) {
	f.Add(127.62, 130.0, 0.00163, 0.2, 0.0163, 1.0, uint16(300))
	f.Add(100.0, 100.0, 0.05, 0.3, 0.02, 1.0, uint16(64))
	f.Add(400.0, 50.0, 0.03, 0.2, 0.01, 1.0, uint16(257))
	f.Add(10.0, 300.0, 0.05, 0.2, 0.0, 0.5, uint16(17))
	f.Add(100.0, 95.0, 0.01, 0.25, 0.08, 2.0, uint16(1))
	f.Add(100.0, 110.0, 0.05, 2.0, 0.03, 1.0, uint16(299))
	f.Add(8.1333, 1225.0, 29.004, 135.25, 18.556, 42.0, uint16(1)) // New would round the swapped up-probability to 0
	f.Fuzz(func(t *testing.T, s, k, r, v, y, e float64, steps uint16) {
		p := option.Params{S: s, K: k, R: r, V: v, Y: y, E: e}
		m, err := New(p, 1+int(steps)%300)
		if err != nil {
			t.Skip()
		}
		for _, c := range []struct {
			kind option.Kind
			fast func() (float64, error)
		}{{option.Call, m.PriceFast}, {option.Put, m.PriceFastPut}} {
			fast, err := c.fast()
			naive := m.PriceNaive(c.kind)
			if math.IsNaN(naive) || math.IsInf(naive, 0) {
				if err != nil && !errors.Is(err, fbstencil.ErrNonFinite) {
					t.Fatalf("%v %+v T=%d: %v", c.kind, p, m.T, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%v %+v T=%d: %v (naive %.17g)", c.kind, p, m.T, err, naive)
			}
			tol := 1e-9 * math.Max(1, math.Abs(naive))
			if d := math.Abs(fast - naive); !(d <= tol) {
				t.Fatalf("%v %+v T=%d: fast %.17g, naive %.17g", c.kind, p, m.T, fast, naive)
			}
		}
	})
}
