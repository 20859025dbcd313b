//go:build !amd64 || amop_purego

package fbstencil

// Non-assembly side of the step kernel's seam: platforms without the AVX2
// kernel (or builds with -tags amop_purego) run spans 1 and 2 on the
// portable loops.

func kernelSpan(int) bool { return false }

func stepObstacleKernel(dst, src, ex, w *float64, span, b, n int) int {
	panic("fbstencil: no step kernel on this build")
}
