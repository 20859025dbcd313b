package bsm

import (
	"math"
	"testing"

	"github.com/nlstencil/amop/internal/option"
)

// FuzzBSMPutFast drives the fast American put with arbitrary contracts and
// step counts up to 300 and requires it to agree with the direct sweep of
// Equation 5 to 1e-9 relative. Contracts New rejects (invalid parameters,
// or scheme coefficients that break Theorem 4.3's positivity) are skipped.
func FuzzBSMPutFast(f *testing.F) {
	f.Add(127.62, 130.0, 0.00163, 0.2, 0.0163, 1.0, uint16(300))
	f.Add(100.0, 100.0, 0.05, 0.3, 0.02, 1.0, uint16(64))
	f.Add(400.0, 50.0, 0.03, 0.2, 0.01, 1.0, uint16(257))
	f.Add(10.0, 300.0, 0.05, 0.2, 0.0, 0.5, uint16(17))
	f.Add(100.0, 95.0, 0.01, 0.25, 0.08, 2.0, uint16(1))
	f.Fuzz(func(t *testing.T, s, k, r, v, y, e float64, steps uint16) {
		p := option.Params{S: s, K: k, R: r, V: v, Y: y, E: e}
		m, err := New(p, 1+int(steps)%300, 0)
		if err != nil {
			t.Skip()
		}
		fast, err := m.PriceFast()
		if err != nil {
			t.Fatalf("%+v T=%d: %v", p, m.T, err)
		}
		naive := m.PriceNaive()
		if d := math.Abs(fast - naive); !(d <= 1e-9*math.Max(1, math.Abs(naive))) {
			t.Fatalf("%+v T=%d: fast %.17g, naive %.17g", p, m.T, fast, naive)
		}
	})
}
