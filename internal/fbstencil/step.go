package fbstencil

// StepObstacle is the obstacle step of every direct solve: the fast
// solver's base cases and package sweep's baselines. For each cell j of dst
// it sets
//
//	dst[j] = max(sum_i w[i]*src[j+i], ex[j])
//
// in one ascending pass, summing the terms in offset order from zero, as
// linstencil.Step does, so the linear part is bitwise Step's. dst may start
// at src[0]: cell j reads src[j..j+len(w)-1], none of which the pass has
// overwritten yet. src must hold len(dst)+len(w)-1 cells and ex at least
// len(dst).
//
// It returns the largest j <= b at which the obstacle won, or -1 if there is
// none. A cell right of b that the obstacle wins keeps the max but is not
// reported: the fast solver's boundary never rises, so such a win is
// roundoff. b < 0 tracks nothing.
//
// Spans 1 and 2 run on the AVX2 kernel where the FFT's does (see
// step_amd64.go), bitwise the generic loops below. The dispatch is small
// enough to inline, so a direct step costs one call.
func StepObstacle(dst, src, ex, w []float64, b int) int {
	if n := len(dst); n > 0 && kernelSpan(len(w)) {
		_, _ = src[n+len(w)-2], ex[n-1] // the cells the kernel reads
		return stepObstacleKernel(&dst[0], &src[0], &ex[0], &w[0], len(w)-1, b, n)
	}
	return stepObstacleGeneric(dst, src, ex, w, b)
}

// stepObstacleGeneric is StepObstacle on the portable loops alone: the
// wider stencils' path, and the reference the kernel is tested against.
func stepObstacleGeneric(dst, src, ex, w []float64, b int) int {
	n := len(dst)
	switch len(w) {
	case 2:
		return stepObstacle2Generic(dst, src[:n+1], ex[:n], w[0], w[1], b)
	case 3:
		return stepObstacle3Generic(dst, src[:n+2], ex[:n], w[0], w[1], w[2], b)
	}
	nb := -1
	for j := range dst {
		var acc float64
		for i, wi := range w {
			acc += wi * src[j+i]
		}
		if g := ex[j]; g > acc {
			acc = g
			if j <= b {
				nb = j
			}
		}
		dst[j] = acc
	}
	return nb
}

// stepObstacle2Generic and stepObstacle3Generic are the generic loop
// unrolled for spans 1 and 2 in the same operation order. The shifted views
// have the length of dst, which lets the compiler drop the per-cell bounds
// checks.
func stepObstacle2Generic(dst, src, ex []float64, w0, w1 float64, b int) int {
	n := len(dst)
	s0, s1, ex := src[:n], src[1:n+1], ex[:n]
	nb := -1
	for j := range dst {
		var acc float64
		acc += w0 * s0[j]
		acc += w1 * s1[j]
		if g := ex[j]; g > acc {
			acc = g
			if j <= b {
				nb = j
			}
		}
		dst[j] = acc
	}
	return nb
}

func stepObstacle3Generic(dst, src, ex []float64, w0, w1, w2 float64, b int) int {
	n := len(dst)
	s0, s1, s2, ex := src[:n], src[1:n+1], src[2:n+2], ex[:n]
	nb := -1
	for j := range dst {
		var acc float64
		acc += w0 * s0[j]
		acc += w1 * s1[j]
		acc += w2 * s2[j]
		if g := ex[j]; g > acc {
			acc = g
			if j <= b {
				nb = j
			}
		}
		dst[j] = acc
	}
	return nb
}
