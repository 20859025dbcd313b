// Package linstencil implements fast evolution of linear 1D stencils using
// the FFT, the machinery of Ahmad et al. (SPAA 2021) that the option-pricing
// paper invokes as its reference [1].
//
// A linear stencil with weight w[o] on offset o updates a row as
//
//	next[j] = sum_{o=MinOff..MaxOff} w[o] * cur[j+o].
//
// Applying it k times is cross-correlation with the coefficients of the k-th
// power of the stencil polynomial P(x) = sum_o w[o] x^(o-MinOff). Instead of
// materializing those coefficients, the symbol P is evaluated at the N-th
// roots of unity and raised to the k-th power pointwise (binary
// exponentiation), so k steps cost one forward FFT, O(N log k) scalar work,
// and one inverse FFT — O(N (log N + log k)) total instead of O(N*k).
//
// Two variants are provided:
//
//   - EvolveCone: aperiodic evolution on a finite segment. Only positions
//     whose k-step dependency cone lies inside the input are returned.
//   - EvolvePeriodic: evolution on a power-of-two ring.
package linstencil

import (
	"fmt"
	"math"
	"time"

	"github.com/nlstencil/amop/internal/fft"
	"github.com/nlstencil/amop/internal/obs"
	"github.com/nlstencil/amop/internal/scratch"
)

// evolveSampleEvery is the FFTEvolve sampling interval: one FFT evolution in
// evolveSampleEvery is timed into the histogram. Must be a power of two (the
// sample check is a mask). The clock reads of an evolution timed on every
// call cost 1.5-1.8% of a T=65536 solve's CPU time.
const evolveSampleEvery = 512

// obsEvolveStart returns the obs.Mono stamp an FFT evolution starts at, and
// whether the FFTEvolve histogram samples it, or ok false when nothing
// records the evolution. The sampling tick is the spectrum-cache lookup
// count, which every evolution bumps. A trace installed with obs.SetActive
// times every evolution, so its fft_evolve stage stays exact. With
// telemetry off, or untraced and unsampled, no clock is read.
func obsEvolveStart() (start int64, sampled, ok bool) {
	if !obs.Enabled() {
		return 0, false, false
	}
	sampled = (specHits.Load()+specMisses.Load())&(evolveSampleEvery-1) == 0
	if !sampled && obs.Active() == nil {
		return 0, false, false
	}
	return obs.Mono(), sampled, true
}

// obsEvolveDone records one FFT evolution, started at the obs.Mono stamp
// start, into the fft_evolve stage of the active span trace, when a repricing
// flight has one installed, and into the process-wide evolve-latency
// histogram when sampled. One duration feeds both. The direct paths record
// nothing: they are cheaper than the record itself, and their time belongs to
// the caller's layer.
func obsEvolveDone(start int64, sampled bool) {
	d := obs.Mono() - start
	if sampled {
		obs.FFTEvolve.Record(d)
	}
	obs.Active().Add(obs.StageFFTEvolve, time.Duration(d))
}

// Stencil is a linear 1D stencil. W[i] is the weight of offset MinOff+i; the
// last weight corresponds to MaxOff = MinOff + len(W) - 1.
type Stencil struct {
	MinOff int
	W      []float64
}

// Span returns MaxOff - MinOff, the degree of the stencil polynomial.
func (s Stencil) Span() int { return len(s.W) - 1 }

// Validate reports whether the stencil is well formed.
func (s Stencil) Validate() error {
	if len(s.W) == 0 {
		return fmt.Errorf("linstencil: stencil has no weights")
	}
	for _, w := range s.W {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("linstencil: stencil weight %v is not finite", w)
		}
	}
	return nil
}

// naiveCutoff is the work bound (cells touched, roughly n*k*span) below which
// EvolveCone uses the direct loop instead of the FFT path. Both paths are
// exact; this is purely a constant-factor optimization for tiny subproblems.
const naiveCutoff = 1 << 11

// EvolveCone advances cur (positions 0..n-1 at some time t) by k steps and
// returns the exactly computable positions at time t+k: vals[i] is the value
// at position firstPos+i, where firstPos = -k*MinOff and
// len(vals) = n - k*Span(). It panics if no position is computable
// (k*Span() >= n) or k < 0.
//
// The returned slice is freshly owned by the caller; callers that drop it on
// a hot path may recycle it with scratch.PutFloats.
func EvolveCone(cur []float64, s Stencil, k int) (vals []float64, firstPos int) {
	if k < 0 {
		panic("linstencil: negative step count")
	}
	outN := len(cur) - k*s.Span()
	if outN <= 0 {
		panic(fmt.Sprintf("linstencil: cone empty: n=%d steps=%d span=%d", len(cur), k, s.Span()))
	}
	vals = scratch.Floats(outN)
	EvolveConeTo(vals, cur, SpectraOf(s), k, nil)
	return vals, -k * s.MinOff
}

// EvolveConeTo is EvolveCone of the stencil whose cache entry is sp,
// writing the computable positions into dst, which must hold exactly
// n - k*Span() cells and not overlap cur; its scratch comes from ws (nil:
// the process-wide pools).
func EvolveConeTo(dst, cur []float64, sp *Spectra, k int, ws *scratch.Workspace) {
	n := len(cur)
	span := len(sp.w) - 1
	if k < 0 {
		panic("linstencil: negative step count")
	}
	if outN := n - k*span; outN <= 0 || len(dst) != outN {
		panic(fmt.Sprintf("linstencil: cone of n=%d steps=%d span=%d into %d cells", n, k, span, len(dst)))
	}
	if k == 0 {
		copy(dst, cur)
		return
	}
	if n*k*(span+1) <= naiveCutoff {
		row := ws.Floats(n)
		copy(row, cur)
		s := Stencil{W: sp.w}
		for step := 0; step < k; step++ {
			row = Step(row, s)
		}
		copy(dst, row)
		ws.Put(row)
		return
	}
	if start, sampled, ok := obsEvolveStart(); ok {
		defer obsEvolveDone(start, sampled)
	}

	// Convolve the row, zero-padded to N, with the cached kernel spectrum,
	// keeping only the len(dst) samples whose cone lies inside the row. The
	// padding is implicit and the convolution writes straight into dst, so
	// a warm call allocates nothing. dst[t] holds
	// corr[t] = sum_m C[m] cur[t+m] for the kernel C of P(x)^k; position j
	// at time t+k corresponds to t = j + k*MinOff, and valid t runs over
	// [0, len(dst)).
	N := fft.NextPow2(n)
	rp := fft.RPlanFor(N)
	rp.Convolve(cur, sp.multiplier(0, N, k, rp), dst, ws)
}

// EvolvePeriodic advances cur, interpreted as a ring of power-of-two size, by
// k steps: next[j] = sum_o w[o]*cur[(j+o) mod n]. The result has the same
// length as the input.
//
// On the ring the correlation index never leaves the grid, but the kernel
// offsets must be taken relative to the true offsets, not the shifted
// polynomial: position j pulls from j+MinOff+m. The MinOff shift is folded
// into the cached kernel spectrum as a w_f^MinOff modulation.
func EvolvePeriodic(cur []float64, s Stencil, k int) []float64 {
	n := len(cur)
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("linstencil: EvolvePeriodic requires power-of-two length, got %d", n))
	}
	if k < 0 {
		panic("linstencil: negative step count")
	}
	if start, sampled, ok := obsEvolveStart(); ok {
		defer obsEvolveDone(start, sampled)
	}
	rp := fft.RPlanFor(n)
	out := scratch.Floats(n)
	rp.Convolve(cur, SpectraOf(s).multiplier(s.MinOff, n, k, rp), out, nil)
	return out
}

// evolveConeNaive is the direct O(n*k*span) evolution, the testing
// reference (see EvolveConeNaive); EvolveConeTo runs the same steps below
// naiveCutoff.
func evolveConeNaive(cur []float64, s Stencil, k int) []float64 {
	row := scratch.Floats(len(cur))
	copy(row, cur)
	for step := 0; step < k; step++ {
		row = Step(row, s)
	}
	return row
}

// Step advances row one step of s in place and returns it shortened by
// s.Span(): cell j becomes sum_i W[i]*row[j+i], summed in offset order, as
// in the direct evolution.
func Step(row []float64, s Stencil) []float64 {
	switch w := s.W; len(w) {
	case 2:
		return step2(row, w[0], w[1])
	case 3:
		return step3(row, w[0], w[1], w[2])
	default:
		return stepW(row, w)
	}
}

// stepW advances row one step in place and returns the shortened row. Each
// cell reads only itself and cells to its right, so ascending order never
// reads an overwritten value.
func stepW(row, w []float64) []float64 {
	next := row[:len(row)-len(w)+1]
	for j := range next {
		var acc float64
		for i, wi := range w {
			acc += wi * row[j+i]
		}
		next[j] = acc
	}
	return next
}

// step2 and step3 are stepW unrolled for the binomial and trinomial/BSM
// stencils, with the same operation order so results are bitwise equal.
// The shifted views have the length of next, which lets the compiler drop
// the per-cell bounds checks.
func step2(row []float64, w0, w1 float64) []float64 {
	n := len(row) - 1
	next, r1 := row[:n], row[1:n+1]
	for j := range next {
		var acc float64
		acc += w0 * next[j]
		acc += w1 * r1[j]
		next[j] = acc
	}
	return next
}

func step3(row []float64, w0, w1, w2 float64) []float64 {
	n := len(row) - 2
	next, r1, r2 := row[:n], row[1:n+1], row[2:n+2]
	for j := range next {
		var acc float64
		acc += w0 * next[j]
		acc += w1 * r1[j]
		acc += w2 * r2[j]
		next[j] = acc
	}
	return next
}

// EvolveConeNaive exposes the direct evolution for tests and
// cross-validation. Semantics match EvolveCone exactly.
func EvolveConeNaive(cur []float64, s Stencil, k int) (vals []float64, firstPos int) {
	n := len(cur)
	if k < 0 || n-k*s.Span() <= 0 {
		panic("linstencil: cone empty")
	}
	return evolveConeNaive(cur, s, k), -k * s.MinOff
}

// EvolvePeriodicNaive is the direct ring evolution used as a testing
// reference for EvolvePeriodic. It accepts any positive length.
func EvolvePeriodicNaive(cur []float64, s Stencil, k int) []float64 {
	n := len(cur)
	row := append([]float64(nil), cur...)
	next := make([]float64, n)
	for step := 0; step < k; step++ {
		for j := 0; j < n; j++ {
			var acc float64
			for i, w := range s.W {
				idx := j + s.MinOff + i
				idx = ((idx % n) + n) % n
				acc += w * row[idx]
			}
			next[j] = acc
		}
		row, next = next, row
	}
	return row
}

// KernelCoefficients returns the k-step kernel C (coefficients of P(x)^k) by
// repeated convolution. Exposed for tests and for callers that want to
// inspect the effective multi-step stencil; O(k^2 * span^2) — not for the
// hot path.
func KernelCoefficients(s Stencil, k int) []float64 {
	c := []float64{1}
	for step := 0; step < k; step++ {
		nc := make([]float64, len(c)+s.Span())
		for i, ci := range c {
			for j, w := range s.W {
				nc[i+j] += ci * w
			}
		}
		c = nc
	}
	return c
}
