package fft

// The transform kernel runs on deinterleaved (structure-of-arrays) float64
// planes. Go's compiler will not vectorize complex128 arithmetic, so a
// butterfly over complex128 runs as scalar MULSD/ADDSD no matter how wide
// the machine's vector units are. Keeping the data in separate re/im
// planes turns each butterfly stage into plain float64 lane arithmetic that
// a SIMD kernel can chew four lanes at a time; on amd64 with AVX2+FMA the
// butterflies run in hand-written assembly behind the dispatch seam in
// kernel_amd64.go / kernel_noasm.go, and everywhere else the portable
// split-plane loops in kernel_generic.go do the work (they are also the
// parity reference the assembly is tested against).
//
// The stage ladder is built around the layout:
//
//   - the trivial-twiddle radix-4 stage (twiddles {1, -i}) is never a pass
//     of its own: the DIT ladder's first and the DIF ladder's last run
//     inside the passes that read or write each quad anyway (quadStore,
//     quadDIF; the convolution's spectral pass, the ForwardSoA/InverseSoA
//     reorder passes);
//   - the remaining radix-4 stages read their twiddles from per-stage
//     *packed* split tables (w^j and w^2j stored contiguously per j), so
//     the vector kernel issues unit-stride loads instead of a strided
//     tw[j*step] walk; the outer pair's w^(j+h) folds to -i*w^j via w^h = -i;
//   - odd-log2 sizes have one radix-2 stage at span n (step-1 twiddles
//     straight off the split base table): last in the DIT ladder, first in
//     the DIF ladder, keeping every vectorizable stage unit-stride;
//   - the DIF ladder is the DIT ladder transposed: the same tables in
//     reverse stage order, each butterfly transposed (bfly4DIFRange,
//     bfly2DIFRange), so one butterfly family serves both directions;
//   - the inverse runs the forward stages under the conjugation identity
//     IDFT(Z) = conj(DFT(conj(Z)))/n, with both conjugations folded into
//     the passes around the ladder, so no inverse butterflies exist;
//   - stages parallelize via internal/par: block-parallel when blocks are
//     plentiful, lane-range-parallel within each block when they are few.

import (
	"math/bits"

	"github.com/nlstencil/amop/internal/obs"
	"github.com/nlstencil/amop/internal/par"
)

// KernelName identifies the butterfly implementation transforms use:
// "avx2" when the assembly kernel is active, "generic" otherwise.
func KernelName() string {
	if kernelAsmAvailable() {
		return kernelArch
	}
	return "generic"
}

// soaTransforms counts split-plane kernel transforms: RPlan calls of size
// n >= 8, one count per direction. The bytes those transforms move are
// counted in transformedBytes by the public entry points.
var soaTransforms = obs.NewCounter("amop_fft_soa_transforms_total",
	"transforms run by the split-plane FFT kernel, per direction")

// SoATransforms returns the cumulative number of split-plane transforms.
func SoATransforms() int64 { return soaTransforms.Load() }

// soaStage holds one radix-4 stage's packed twiddles: w1[j] = w^j and
// w2[j] = w^2j for w = exp(-2*pi*i/(4h)), stored as split unit-stride
// planes so the vector kernel loads them with plain wide loads.
type soaStage struct {
	h                  int
	w1r, w1i, w2r, w2i []float64
}

// buildStages derives the plan's packed per-stage radix-4 tables from its
// split base table — no new Sincos calls.
func (p *plan) buildStages() {
	n, half := p.n, p.n/2
	p.finalR2 = bits.TrailingZeros(uint(n))%2 == 1
	radix4End := n
	if p.finalR2 {
		radix4End = half
	}
	for h := 4; 4*h <= radix4End; h *= 4 {
		st := soaStage{h: h}
		st.w1r = make([]float64, h)
		st.w1i = make([]float64, h)
		st.w2r = make([]float64, h)
		st.w2i = make([]float64, h)
		// The stage combines four size-h sub-transforms into size 4h, so
		// its twiddles live on the circle of size 4h: w^j = tw[j*n/(4h)]
		// on the plan's size-n table. w^2j can run past the table's half
		// circle; w^(m+n/2) = -w^m folds it back.
		stride := n / (4 * h)
		for j := 0; j < h; j++ {
			st.w1r[j] = p.twRe[j*stride]
			st.w1i[j] = p.twIm[j*stride]
			if idx2 := 2 * j * stride; idx2 < half {
				st.w2r[j] = p.twRe[idx2]
				st.w2i[j] = p.twIm[idx2]
			} else {
				st.w2r[j] = -p.twRe[idx2-half]
				st.w2i[j] = -p.twIm[idx2-half]
			}
		}
		p.stages = append(p.stages, st)
	}
}

// quadStore applies the trivial first radix-4 butterfly of the DIT ladder
// (twiddles {1, -i}) to one quad and writes the results at planes[i..i+3].
// Shared by InverseSoA's reorder pass and the convolution's spectral pass so
// the butterfly algebra exists once.
func quadStore(re, im []float64, i int, x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i float64) {
	u0r, u1r := x0r+x1r, x0r-x1r
	u0i, u1i := x0i+x1i, x0i-x1i
	u2r, u3r := x2r+x3r, x2r-x3r
	u2i, u3i := x2i+x3i, x2i-x3i
	// t3 = -i * u3
	t3r, t3i := u3i, -u3r
	re[i], re[i+2] = u0r+u2r, u0r-u2r
	im[i], im[i+2] = u0i+u2i, u0i-u2i
	re[i+1], re[i+3] = u1r+t3r, u1r-t3r
	im[i+1], im[i+3] = u1i+t3i, u1i-t3i
}

// bfly4Func and bfly2Func are the dispatched butterfly ranges of one
// direction: bfly4Range/bfly2Range (DIT) or their transposes
// bfly4DIFRange/bfly2DIFRange (DIF).
type (
	bfly4Func func(re, im []float64, base int, st *soaStage, jLo, jHi int)
	bfly2Func func(re, im, twRe, twIm []float64, half, jLo, jHi int)
)

// ditStages runs the decimation-in-time ladder over planes that hold
// bit-reversed input with the trivial first radix-4 butterfly already
// applied (quadStore), leaving the transform in natural order.
func (p *plan) ditStages(re, im []float64) {
	parallel := p.n >= ParThreshold && par.Workers() > 1
	for si := range p.stages {
		p.radix4Stage(re, im, &p.stages[si], bfly4Range, parallel)
	}
	if p.finalR2 {
		p.radix2Stage(re, im, bfly2Range, parallel)
	}
}

// difStages runs the decimation-in-frequency ladder, the transpose of
// ditStages: the same tables in reverse stage order with each butterfly
// transposed, so natural-order input leaves in bit-reversed order. Since
// the DFT matrix is symmetric, F = (D_L ... D_1 P)^T = P D_1^T ... D_L^T
// for the DIT stages D_i and the bit reversal P. The trivial last radix-4
// stage is left to the caller (the convolution's spectral pass, or
// ForwardSoA's quadDIF pass).
func (p *plan) difStages(re, im []float64) {
	parallel := p.n >= ParThreshold && par.Workers() > 1
	if p.finalR2 {
		p.radix2Stage(re, im, bfly2DIFRange, parallel)
	}
	for si := len(p.stages) - 1; si >= 0; si-- {
		p.radix4Stage(re, im, &p.stages[si], bfly4DIFRange, parallel)
	}
}

// radix4Stage runs one radix-4 stage. In parallel it splits by shape: many
// small blocks parallelize across blocks, few large blocks split each
// block's lane range instead. Lane chunks are quad-granular so the vector
// kernel always sees multiples of four.
func (p *plan) radix4Stage(re, im []float64, st *soaStage, bfly bfly4Func, parallel bool) {
	h := st.h
	blocks := p.n / (4 * h)
	switch {
	case !parallel:
		for b := 0; b < blocks; b++ {
			bfly(re, im, b*4*h, st, 0, h)
		}
	case blocks >= 2*par.Workers():
		par.For(blocks, 1, func(lo, hi int) {
			for b := lo; b < hi; b++ {
				bfly(re, im, b*4*h, st, 0, h)
			}
		})
	default:
		for b := 0; b < blocks; b++ {
			base := b * 4 * h
			par.For(h/4, 512, func(qLo, qHi int) {
				bfly(re, im, base, st, 4*qLo, 4*qHi)
			})
		}
	}
}

// radix2Stage runs the span-n radix-2 stage of an odd-log2 plan, with
// step-1 twiddles straight off the split base table.
func (p *plan) radix2Stage(re, im []float64, bfly bfly2Func, parallel bool) {
	half := p.n / 2
	if !parallel {
		bfly(re, im, p.twRe, p.twIm, half, 0, half)
		return
	}
	par.For(half/4, 512, func(qLo, qHi int) {
		bfly(re, im, p.twRe, p.twIm, half, 4*qLo, 4*qHi)
	})
}
