//go:build amd64 && !amop_purego

package fbstencil

import "github.com/nlstencil/amop/internal/fft"

// amd64 side of the step kernel's seam: spans 1 and 2 run four cells at a
// time in the AVX2 assembly of step_amd64.s, and the last len(dst)%4 cells
// on the generic loops. The kernel does the generic loops' arithmetic in
// their order (products summed from zero, no fused multiply-add, the
// obstacle taken only where it compares greater), so it is bitwise theirs.
// Builds with -tags amop_purego exclude this file and the assembly;
// step_noasm.go then provides the same entry points.

// useAVX2 is the FFT's CPU check (AVX2, FMA and saved YMM state), made once.
var useAVX2 = fft.KernelName() == "avx2"

// stepObstacle2AVX2 and stepObstacle3AVX2 run the step on cells [0, n) and
// return the largest j <= b at which the obstacle won, or -1; n must be a
// positive multiple of 4, src must hold n+1 (n+2) cells and ex n.
//
//go:noescape
func stepObstacle2AVX2(dst, src, ex *float64, w0, w1 float64, b, n int) int

//go:noescape
func stepObstacle3AVX2(dst, src, ex *float64, w0, w1, w2 float64, b, n int) int

func stepObstacle2(dst, src, ex []float64, w0, w1 float64, b int) int {
	n := len(dst) &^ 3
	if n == 0 || !useAVX2 {
		return stepObstacle2Generic(dst, src, ex, w0, w1, b)
	}
	nb := stepObstacle2AVX2(&dst[0], &src[0], &ex[0], w0, w1, b, n)
	if j := stepObstacle2Generic(dst[n:], src[n:], ex[n:], w0, w1, tailBound(b, n)); j >= 0 {
		nb = n + j
	}
	return nb
}

func stepObstacle3(dst, src, ex []float64, w0, w1, w2 float64, b int) int {
	n := len(dst) &^ 3
	if n == 0 || !useAVX2 {
		return stepObstacle3Generic(dst, src, ex, w0, w1, w2, b)
	}
	nb := stepObstacle3AVX2(&dst[0], &src[0], &ex[0], w0, w1, w2, b, n)
	if j := stepObstacle3Generic(dst[n:], src[n:], ex[n:], w0, w1, w2, tailBound(b, n)); j >= 0 {
		nb = n + j
	}
	return nb
}

// tailBound is b in the columns of the tail that starts at cell n, without
// the overflow of b-n at the bottom of the int range.
func tailBound(b, n int) int {
	if b < n {
		return -1
	}
	return b - n
}
