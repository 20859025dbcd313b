//go:build !amd64 || amop_purego

package fbstencil

// Non-assembly side of the step kernel's seam: platforms without the AVX2
// kernel (or builds with -tags amop_purego) run spans 1 and 2 on the
// portable loops.

func stepObstacle2(dst, src, ex []float64, w0, w1 float64, b int) int {
	return stepObstacle2Generic(dst, src, ex, w0, w1, b)
}

func stepObstacle3(dst, src, ex []float64, w0, w1, w2 float64, b int) int {
	return stepObstacle3Generic(dst, src, ex, w0, w1, w2, b)
}
