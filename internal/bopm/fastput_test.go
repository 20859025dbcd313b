package bopm

import (
	"math/rand"
	"testing"

	"github.com/nlstencil/amop/internal/option"
)

func TestPutBoundaryStructure(t *testing.T) {
	// The green-left structure that Corollary 2.7 gives the put (and so the
	// fast call, the put of the swapped contract) holds across broad
	// parameters.
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 25; trial++ {
		m, err := New(randParams(rng), 16+rng.Intn(400))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.ValidatePutStructure(); err != nil {
			t.Errorf("trial %d (T=%d, %+v): %v", trial, m.T, m.Prm, err)
		}
	}
	// Zero-dividend regime too (the common case for equity puts).
	for trial := 0; trial < 10; trial++ {
		p := randParams(rng)
		p.Y = 0
		m, err := New(p, 16+rng.Intn(400))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.ValidatePutStructure(); err != nil {
			t.Errorf("Y=0 trial %d (T=%d): %v", trial, m.T, err)
		}
	}
}

func TestFastPutMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 30; trial++ {
		p := randParams(rng)
		if trial%2 == 0 {
			p.Y = 0
		}
		m, err := New(p, 16+rng.Intn(600))
		if err != nil {
			t.Fatal(err)
		}
		fast, err := m.PriceFastPut()
		if err != nil {
			t.Fatal(err)
		}
		naive := m.PriceNaive(option.Put)
		if d := relDiff(fast, naive); d > 1e-10 {
			t.Errorf("trial %d (T=%d, %+v): fast %.12g naive %.12g rel %g", trial, m.T, p, fast, naive, d)
		}
	}
}

func TestFastPutPaperParams(t *testing.T) {
	for _, T := range []int{100, 1000, 5000} {
		m, err := New(option.Default(), T)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := m.PriceFastPut()
		if err != nil {
			t.Fatal(err)
		}
		naive := m.PriceNaive(option.Put)
		if d := relDiff(fast, naive); d > 1e-10 {
			t.Errorf("T=%d: fast %.12g naive %.12g rel %g", T, fast, naive, d)
		}
	}
}

func TestFastPutDeepCases(t *testing.T) {
	cases := []option.Params{
		{S: 400, K: 50, R: 0.03, V: 0.2, Y: 0, E: 1},      // deep OTM put: all red
		{S: 10, K: 300, R: 0.03, V: 0.2, Y: 0, E: 1},      // deep ITM put: exercise now
		{S: 100, K: 100, R: 0.0001, V: 0.3, Y: 0.1, E: 2}, // high dividend, tiny rate
	}
	for i, p := range cases {
		m, err := New(p, 600)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := m.PriceFastPut()
		if err != nil {
			t.Fatal(err)
		}
		naive := m.PriceNaive(option.Put)
		if d := relDiff(fast, naive); d > 1e-10 {
			t.Errorf("case %d: fast %.12g naive %.12g", i, fast, naive)
		}
	}
}
