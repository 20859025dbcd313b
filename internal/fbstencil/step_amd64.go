//go:build amd64 && !amop_purego

package fbstencil

import "github.com/nlstencil/amop/internal/fft"

// amd64 side of the step kernel's seam: spans 1 and 2 run in the AVX2
// assembly of step_amd64.s, four cells at a time and the last len(dst)%4 as
// one masked block. The kernel does the generic loops' arithmetic in their
// order (products summed from zero, no fused multiply-add, the obstacle
// taken only where it compares greater), so it is bitwise theirs. Builds
// with -tags amop_purego exclude this file and the assembly; step_noasm.go
// then provides the same entry points.

// useAVX2 is the FFT's CPU check (AVX2, FMA and saved YMM state), made once.
var useAVX2 = fft.KernelName() == "avx2"

// kernelSpan reports whether StepObstacle runs the kernel on a stencil of
// nw weights.
func kernelSpan(nw int) bool { return useAVX2 && (nw == 2 || nw == 3) }

// stepObstacleKernel runs the step of span 1 or 2 on cells [0, n) and
// returns the largest j <= b at which the obstacle won, or -1; n must be
// positive, w must hold span+1 weights, src n+span cells and ex n.
//
//go:noescape
func stepObstacleKernel(dst, src, ex, w *float64, span, b, n int) int
