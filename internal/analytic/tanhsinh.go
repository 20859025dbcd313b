package analytic

import (
	"math"
	"sync"
)

// tsRule is a tanh-sinh (double-exponential) quadrature rule on (-1, 1):
// nodes y_k = tanh((pi/2) sinh(k h)) with weights decaying double
// exponentially toward the endpoints. The rule never places a node on an
// endpoint and its weights vanish fast enough there to integrate the
// square-root endpoint singularities of the boundary integrals (the
// 1/sqrt(tau-u) kernel of K2/K3) at full order.
//
// om and op store 1-y and 1+y computed from the exponential form directly
// (1 - tanh(a) = 2/(e^{2a}+1)), not by subtraction: near the endpoints y
// rounds to +-1 in float64 while the distance to the endpoint is still
// ~1e-30, and the singular integrands need that distance, not the rounded
// node.
type tsRule struct {
	y  []float64 // node position in (-1, 1)
	om []float64 // 1 - y, computed without cancellation
	op []float64 // 1 + y, computed without cancellation
	w  []float64 // weight (for the unmapped rule on (-1, 1))
}

// tsCutoff stops emitting node pairs once (pi/2)sinh(kh) passes this bound:
// the weight is ~4*(pi/2)cosh(kh)e^{-2a} there (~1e-30 at 35), and even
// against a 1/sqrt endpoint singularity amplifying by e^{a} the
// contribution is ~e^{-35}.
const tsCutoff = 35.0

func newTSRule(h float64) *tsRule {
	r := &tsRule{}
	for k := 0; ; k++ {
		t := float64(k) * h
		a := 0.5 * math.Pi * math.Sinh(t)
		if a > tsCutoff {
			break
		}
		// 1-y = 2/(e^{2a}+1), 1+y = 2e^{2a}/(e^{2a}+1), y = (e^{2a}-1)/(e^{2a}+1).
		e2a := math.Exp(2 * a)
		om := 2 / (e2a + 1)
		op := 2 * e2a / (e2a + 1)
		y := (e2a - 1) / (e2a + 1)
		// w = h*(pi/2)*cosh(t)/cosh^2(a); cosh(a) = (e^a + e^-a)/2.
		ea := math.Exp(a)
		ca := 0.5 * (ea + 1/ea)
		w := h * 0.5 * math.Pi * math.Cosh(t) / (ca * ca)
		r.y = append(r.y, y)
		r.om = append(r.om, om)
		r.op = append(r.op, op)
		r.w = append(r.w, w)
		if k > 0 {
			// Mirror node at -y: 1-(-y) = 1+y and vice versa.
			r.y = append(r.y, -y)
			r.om = append(r.om, op)
			r.op = append(r.op, om)
			r.w = append(r.w, w)
		}
	}
	return r
}

// tsCache shares generated rules across all boundary solves in the process;
// a rule is a few hundred bytes and there are only a couple of step sizes in
// use, so the cache is unbounded by construction.
var (
	tsMu    sync.RWMutex
	tsRules = make(map[float64]*tsRule)
)

// tanhSinh returns the shared rule for step size h.
func tanhSinh(h float64) *tsRule {
	tsMu.RLock()
	r := tsRules[h]
	tsMu.RUnlock()
	if r != nil {
		return r
	}
	fresh := newTSRule(h)
	tsMu.Lock()
	if prior, ok := tsRules[h]; ok {
		fresh = prior // a concurrent builder won; share its rule
	} else {
		tsRules[h] = fresh
	}
	tsMu.Unlock()
	return fresh
}
