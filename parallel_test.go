package amop

import (
	"math"
	"testing"

	"github.com/nlstencil/amop/internal/par"
)

// fastSolvers lists every Fast lattice solver: the paper's BOPM and TOPM
// calls (the puts of their swapped contracts) and BSM put, and the BOPM and
// TOPM puts.
var fastSolvers = []struct {
	name  string
	model Model
	typ   OptionType
}{
	{"bopm-call", Binomial, Call},
	{"topm-call", Trinomial, Call},
	{"bsm-put", BlackScholesFD, Put},
	{"bopm-put", Binomial, Put},
	{"topm-put", Trinomial, Put},
}

var parityOption = Option{S: 127.62, K: 130, R: 0.00163, V: 0.2, Y: 0.0163, E: 1}

// priceWithWorkers prices o on a Fast solver with the worker count set to w.
func priceWithWorkers(t *testing.T, w int, o Option, m Model, steps int) float64 {
	t.Helper()
	defer par.SetWorkers(par.SetWorkers(w))
	v, err := Price(o, m, Config{Steps: steps})
	if err != nil {
		t.Fatalf("%v %v T=%d workers=%d: %v", m, o.Type, steps, w, err)
	}
	return v
}

// Forked branches compute disjoint cells, so which goroutine runs a branch,
// and whether it forks at all, must not change a single bit of any price.
func TestFastSolversParallelMatchSerialBitwise(t *testing.T) {
	for _, s := range fastSolvers {
		o := parityOption
		o.Type = s.typ
		for _, steps := range []int{777, 4096, 1 << 15} {
			serial := priceWithWorkers(t, 1, o, s.model, steps)
			parallel := priceWithWorkers(t, 4, o, s.model, steps)
			if math.Float64bits(serial) != math.Float64bits(parallel) {
				t.Errorf("%s T=%d: 4 workers %.17g, 1 worker %.17g", s.name, steps, parallel, serial)
			}
		}
	}
}
