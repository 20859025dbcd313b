package main

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/fft"
	"github.com/nlstencil/amop/internal/linstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/scratch"
)

// isolatedLayers measures single layers called directly, independent of the
// workload: the real-input transforms at the sizes the chains (n=4096) and
// lattice-deep (n=131072) use, one stencil evolution, and the fast solver's
// work exponent over a T ladder. Each time is a median over repetitions.
func isolatedLayers(into map[string]float64, tiny bool) {
	reps := 21
	if tiny {
		reps = 3
	}
	for _, n := range []int{4096, 131072} {
		fwd, inv, bytes := timeFFT(n, reps)
		suffix := ".n" + strconv.Itoa(n)
		into["fft.fwd_us"+suffix] = fwd * 1e6
		into["fft.inv_us"+suffix] = inv * 1e6
		if n == 131072 {
			into["fft.gbps.n131072"] = float64(bytes) / (fwd + inv) / 1e9
		}
	}
	into["linstencil.evolve_cone_ms"] = timeEvolveCone(reps) * 1e3
	into["fbstencil.work_exponent"] = workExponent(tiny)
}

// timeFFT returns the median forward and inverse times of the plane-native
// real transform of size n, and the bytes one forward plus one inverse
// transform move by the fft package's own count (computed, not measured).
func timeFFT(n, reps int) (fwd, inv float64, bytes int64) {
	rp := fft.RPlanFor(n)
	rng := rand.New(rand.NewSource(int64(n)))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	y := make([]float64, n)
	sr, si := make([]float64, n/2+1), make([]float64, n/2+1)
	var fs, is []float64
	for r := 0; r < reps; r++ {
		b0 := fft.TransformedBytes()
		t0 := time.Now()
		rp.ForwardSoA(x, sr, si)
		t1 := time.Now()
		rp.InverseSoA(sr, si, y)
		t2 := time.Now()
		bytes = fft.TransformedBytes() - b0
		fs = append(fs, t1.Sub(t0).Seconds())
		is = append(is, t2.Sub(t1).Seconds())
	}
	return quantile(fs, 0.5), quantile(is, 0.5), bytes
}

// timeEvolveCone times EvolveCone with the binomial model's stencil on a
// 2^17 row for 2^15 steps: the size of the top trapezoid of a T=65536 solve.
func timeEvolveCone(reps int) float64 {
	m, err := bopm.New(option.Default(), 1<<16)
	if err != nil {
		return 0
	}
	s := m.Stencil()
	rng := rand.New(rand.NewSource(1))
	row := make([]float64, 1<<17)
	for i := range row {
		row[i] = rng.Float64()
	}
	var ts []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		vals, _ := linstencil.EvolveCone(row, s, 1<<15)
		ts = append(ts, time.Since(t0).Seconds())
		scratch.PutFloats(vals)
	}
	return quantile(ts, 0.5)
}

// workExponent fits log(solve time) against log(T) for the binomial fast
// solver at T = 2^12 .. 2^16; the paper's O(T log^2 T) reads as ~1+o(1).
func workExponent(tiny bool) float64 {
	hi := 16
	if tiny {
		hi = 13
	}
	var xs, ys []float64
	for e := 12; e <= hi; e++ {
		var ts []float64
		for r := 0; r < 5; r++ {
			m, err := bopm.New(option.Default(), 1<<e)
			if err != nil {
				return 0
			}
			t0 := time.Now()
			if _, err := m.PriceFast(); err != nil {
				return 0
			}
			ts = append(ts, time.Since(t0).Seconds())
		}
		xs = append(xs, float64(e))
		ys = append(ys, math.Log2(quantile(ts, 0.5)))
	}
	return slope(xs, ys)
}

// slope is the least-squares slope of ys against xs.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	return ratio(n*sxy-sx*sy, n*sxx-sx*sx)
}
