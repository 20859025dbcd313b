package amop

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bumpGreeks is the bump-and-reprice reference the tests compare against:
// central differences of price over spot ±1%, vol ±0.01, rate ±5e-4 and
// expiry ±min(0.01, E/4), gamma from the spot bumps around the base price.
func bumpGreeks(o Option, price func(Option) (float64, error)) (Greeks, error) {
	var g Greeks
	base, err := price(o)
	if err != nil {
		return g, err
	}
	diff := func(bump func(o *Option, sign float64) float64) (up, dn, width float64, err error) {
		ou, od := o, o
		width = bump(&ou, 1) - bump(&od, -1)
		if up, err = price(ou); err != nil {
			return
		}
		dn, err = price(od)
		return
	}
	dS := 0.01 * o.S
	up, dn, w, err := diff(func(o *Option, sign float64) float64 { o.S += sign * dS; return o.S })
	if err != nil {
		return g, err
	}
	g.Delta = (up - dn) / w
	g.Gamma = (up - 2*base + dn) / (dS * dS)
	if up, dn, w, err = diff(func(o *Option, sign float64) float64 {
		o.V = math.Max(o.V+sign*vegaBump, volBracketLo)
		return o.V
	}); err != nil {
		return g, err
	}
	g.Vega = (up - dn) / w
	if up, dn, w, err = diff(func(o *Option, sign float64) float64 { o.R = math.Max(o.R+sign*5e-4, 0); return o.R }); err != nil {
		return g, err
	}
	g.Rho = (up - dn) / w
	dE := math.Min(0.01, o.E/4)
	if up, dn, w, err = diff(func(o *Option, sign float64) float64 { o.E += sign * dE; return o.E }); err != nil {
		return g, err
	}
	g.Theta = -(up - dn) / w
	return g, nil
}

// TestGreeksTopRowAccuracy compares GreeksAmerican at 1000 steps, whose
// delta, gamma and theta come from the solve's rows next to the apex, and
// the bump-and-reprice Greeks of the same pricer with GreeksAnalytic on 40
// seeded in-envelope contracts, puts (the BSM grid) and calls (the binomial
// tree) alternating. The top rows must be no worse than the bumps at the
// median of each Greek, and gamma's worst case must fall: dividing a 1%
// spot bump's difference by dS^2 amplifies the lattice's O(1/T) oscillation
// in the spot.
func TestGreeksTopRowAccuracy(t *testing.T) {
	const steps = 1000
	rng := rand.New(rand.NewSource(35))
	names := []string{"delta", "gamma", "theta"}
	pick := func(g Greeks) [3]float64 { return [3]float64{g.Delta, g.Gamma, g.Theta} }
	var top, bump [3][]float64
	for i := 0; i < 40; i++ {
		typ := Put
		if i%2 == 1 {
			typ = Call
		}
		o := Option{
			Type: typ,
			S:    100,
			K:    100 * math.Exp(0.4*rng.Float64()-0.2),
			R:    0.01 + 0.07*rng.Float64(),
			V:    0.15 + 0.35*rng.Float64(),
			Y:    0.05 * rng.Float64(),
			E:    0.25 + 1.75*rng.Float64(),
		}
		_, want, err := GreeksAnalytic(o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		got, err := GreeksAmerican(o, steps)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		fd, err := bumpGreeks(o, func(o Option) (float64, error) { return PriceAmerican(o, steps) })
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		w, g, f := pick(want), pick(got), pick(fd)
		for j := range w {
			top[j] = append(top[j], math.Abs(g[j]-w[j])/math.Abs(w[j]))
			bump[j] = append(bump[j], math.Abs(f[j]-w[j])/math.Abs(w[j]))
		}
	}
	medWorst := func(e []float64) (float64, float64) {
		s := slices.Sorted(slices.Values(e))
		return (s[len(s)/2-1] + s[len(s)/2]) / 2, s[len(s)-1]
	}
	for j, name := range names {
		tm, tw := medWorst(top[j])
		bm, bw := medWorst(bump[j])
		t.Logf("%s: top rows median %.3g%% worst %.3g%%; bumps median %.3g%% worst %.3g%%", name, 100*tm, 100*tw, 100*bm, 100*bw)
		if !(tm <= bm) {
			t.Errorf("%s: top-row median error %.3g above the bumps' %.3g", name, tm, bm)
		}
		if name == "gamma" && !(tw < bw) {
			t.Errorf("gamma: top-row worst error %.3g not below the bumps' %.3g", tw, bw)
		}
	}
}
