// Package fft implements the fast Fourier transform substrate used by the
// linear-stencil machinery (Ahmad et al., SPAA 2021 — reference [1] of the
// paper). Its one transform is the real-input RPlan, over split re/im
// float64 planes:
//
//   - one butterfly family: the n real samples are packed into n/2 complex
//     samples and run through an iterative radix-4 ladder (plus one radix-2
//     stage for odd log2 sizes), decimation in time (DIT: bit-reversed in,
//     natural out) or its transpose, decimation in frequency (DIF: natural
//     in, bit-reversed out), with two implementations of each butterfly
//     behind a build-tag seam — AVX2+FMA assembly and portable Go loops
//     (see soa.go);
//   - RPlan.Convolve, the stencil evolution's one path: a DIF forward, one
//     fused spectral pass that multiplies in bit-reversed order, and the
//     DIT inverse, so the spectrum is never reordered (see convolve.go);
//     ForwardSoA/InverseSoA give the natural-order half spectrum;
//   - stage-level parallelism via internal/par for large transforms;
//   - exact complex integer powers by binary exponentiation (used to raise a
//     stencil's symbol to the k-th power with ~log2(k)-ulp error growth);
//   - a process-wide plan cache, since the option-pricing recursion requests
//     many transforms of identical sizes.
//
// Only power-of-two sizes are supported; callers pad with NextPow2.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// ParThreshold is the size in packed complex samples (n/2 for a real
// transform of n) at or above which a transform's passes and stages run in
// parallel. Below it the fork-join overhead exceeds the butterfly work.
const ParThreshold = 1 << 13

// plan holds the stage tables of the complex split-plane ladder for one
// fixed size: the inner transform of an RPlan of twice that size. A plan is
// safe for concurrent use: its tables are read-only after creation.
type plan struct {
	n          int
	twRe, twIm []float64  // exp(-2*pi*i*k/n) split into planes, k in [0, n/2)
	stages     []soaStage // packed radix-4 twiddles, h = 4, 16, 64, ...
	finalR2    bool       // odd log2: one radix-2 stage of span n closes the DIT ladder and opens the DIF
}

// newPlan creates a plan for transforms of size n. n must be a power of two
// and at least 1.
func newPlan(n int) *plan {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: size %d is not a positive power of two", n))
	}
	p := &plan{n: n}
	p.twRe = make([]float64, n/2)
	p.twIm = make([]float64, n/2)
	for k := range p.twRe {
		p.twIm[k], p.twRe[k] = math.Sincos(-2 * math.Pi * float64(k) / float64(n))
	}
	p.buildStages()
	return p
}

var planCache sync.Map // int -> *plan

// planFor returns a cached plan of size n, creating it on first use.
func planFor(n int) *plan {
	if v, ok := planCache.Load(n); ok {
		return v.(*plan)
	}
	p := newPlan(n)
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*plan)
}

// Prewarm builds and caches the real-input plans for every power-of-two
// size up to NextPow2(n), so a caller that times its solves can build the
// twiddle tables before the clock starts. Without it, RPlanFor builds each
// plan on its first use.
func Prewarm(n int) {
	N := NextPow2(n)
	for s := 1; s <= N; s <<= 1 {
		RPlanFor(s)
	}
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Pow returns z raised to the non-negative integer power k by binary
// exponentiation. Unlike polar-form powering (r^k * e^{i*k*theta}), the
// relative error grows only like log2(k) ulps, which matters when k is the
// number of stencil time steps (up to millions).
func Pow(z complex128, k int) complex128 {
	if k < 0 {
		panic("fft: Pow requires k >= 0")
	}
	result := complex(1, 0)
	for k > 0 {
		if k&1 == 1 {
			result *= z
		}
		z *= z
		k >>= 1
	}
	return result
}
