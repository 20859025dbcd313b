// Package fft implements the fast Fourier transform substrate used by the
// linear-stencil machinery (Ahmad et al., SPAA 2021 — reference [1] of the
// paper). It is a self-contained, allocation-conscious, parallel
// implementation:
//
//   - one kernel: an iterative radix-4 Cooley-Tukey ladder (plus one
//     trailing radix-2 stage for odd log2 sizes) over split re/im float64
//     planes, with two butterfly implementations behind a build-tag seam —
//     AVX2+FMA assembly and portable Go loops (see soa.go);
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
	"sync/atomic"

	"github.com/nlstencil/amop/internal/par"
)

// defaultParThreshold is the transform size at or above which stages run in
// parallel. Below it the fork-join overhead exceeds the butterfly work.
const defaultParThreshold = 1 << 13

// parThresholdV holds the current parallel-stage threshold; see
// setParThreshold.
var parThresholdV atomic.Int64

func init() { parThresholdV.Store(defaultParThreshold) }

func parThreshold() int { return int(parThresholdV.Load()) }

// ParThreshold reports the transform size at or above which stages run in
// parallel.
func ParThreshold() int { return parThreshold() }

// setParThreshold sets the transform size at or above which transforms use
// stage-level parallelism and returns the previous value; n <= 0 restores the
// default (1<<13). Tests lower it to drive the parallel paths on small
// transforms.
func setParThreshold(n int) int {
	if n <= 0 {
		n = defaultParThreshold
	}
	return int(parThresholdV.Swap(int64(n)))
}

// Plan holds the precomputed tables for transforms of one fixed size. A Plan
// is safe for concurrent use: its tables are read-only after creation.
type Plan struct {
	n          int
	rev        []int32    // bit-reversal permutation
	twRe, twIm []float64  // exp(-2*pi*i*k/n) split into planes, k in [0, n/2)
	stages     []soaStage // packed radix-4 twiddles, h = 4, 16, 64, ...
	finalR2    bool       // odd log2: one radix-2 stage of span n closes the ladder
}

// NewPlan creates a plan for transforms of size n. n must be a power of two
// and at least 1.
func NewPlan(n int) *Plan {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: size %d is not a positive power of two", n))
	}
	p := &Plan{n: n}
	p.rev = make([]int32, n)
	shift := bits.UintSize - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		p.rev[i] = int32(bits.Reverse(uint(i)) >> shift)
	}
	p.twRe = make([]float64, n/2)
	p.twIm = make([]float64, n/2)
	for k := range p.twRe {
		p.twIm[k], p.twRe[k] = math.Sincos(-2 * math.Pi * float64(k) / float64(n))
	}
	p.buildStages()
	return p
}

// Size returns the transform size of the plan.
func (p *Plan) Size() int { return p.n }

var planCache sync.Map // int -> *Plan

// PlanFor returns a cached plan of size n, creating it on first use.
func PlanFor(n int) *Plan {
	if v, ok := planCache.Load(n); ok {
		return v.(*Plan)
	}
	p := NewPlan(n)
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*Plan)
}

// Prewarm builds and caches the complex and real-input plans for every
// power-of-two size up to NextPow2(n). The batch engine calls it once per
// batch at the largest transform size its solves can request, so twiddle
// tables are constructed once, up front, instead of racing across the first
// wave of workers (plan-cache losers discard their construction work).
func Prewarm(n int) {
	N := NextPow2(n)
	for s := 1; s <= N; s <<= 1 {
		PlanFor(s)
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

// Forward computes the in-place forward DFT of a:
// A[f] = sum_j a[j] * exp(-2*pi*i*j*f/n).
func (p *Plan) Forward(a []complex128) {
	addTransformed(16 * p.n)
	p.transform(a, false)
}

// Inverse computes the in-place inverse DFT of a, including the 1/n scaling,
// so that Inverse(Forward(a)) == a up to rounding.
func (p *Plan) Inverse(a []complex128) {
	addTransformed(16 * p.n)
	p.transform(a, true)
	inv := complex(1/float64(p.n), 0)
	if p.n >= parThreshold() {
		p.scalePar(a, inv)
		return
	}
	for i := range a {
		a[i] *= inv
	}
}

// scalePar lives in its own function so Inverse's hot serial path carries no
// closure: a parameter captured by an escaping func literal is boxed on every
// call, even when the parallel branch is never taken.
func (p *Plan) scalePar(a []complex128, inv complex128) {
	par.For(p.n, 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] *= inv
		}
	})
}

// transform runs the unscaled transform in place. Sizes 1 and 2 have no
// radix-4 structure and are computed directly (the size-2 butterfly has
// twiddle 1 in both directions); everything else runs the split-plane kernel.
func (p *Plan) transform(a []complex128, inverse bool) {
	if len(a) != p.n {
		panic(fmt.Sprintf("fft: input length %d does not match plan size %d", len(a), p.n))
	}
	switch p.n {
	case 1:
	case 2:
		a[0], a[1] = a[0]+a[1], a[0]-a[1]
	default:
		p.soaTransform(a, inverse)
	}
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
