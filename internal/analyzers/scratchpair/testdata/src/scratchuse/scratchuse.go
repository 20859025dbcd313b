// Package scratchuse exercises the scratchpair analyzer: the pool's
// borrow-and-put protocol, ownership transfers, and the leaks it must catch.
package scratchuse

import "github.com/nlstencil/amop/internal/scratch"

func fill(b []float64) {
	for i := range b {
		b[i] = float64(i)
	}
}

func sum(b []float64) float64 {
	var t float64
	for _, x := range b {
		t += x
	}
	return t
}

func done(b []float64, i int) bool { return b[i] == 0 }

type state struct{ buf []float64 }

// ---- shapes the analyzer must flag ----

func leakDiscarded() {
	scratch.Floats(16) // want `result of scratch\.Floats is discarded`
}

// Passing a buffer to another function is a borrow, not a transfer: the
// caller still owes the Put.
func leakNeverPut(n int) float64 {
	buf := scratch.Floats(n) // want `scratch\.Floats result "buf" never reaches scratch\.Put\* on any path`
	fill(buf)
	total := sum(buf)
	return total
}

func leakEarlyReturn(n int, bad bool) float64 {
	buf := scratch.Floats(n)
	fill(buf)
	if bad {
		return 0 // want `return leaks scratch\.Floats result "buf": no scratch\.Put\* on this path`
	}
	total := sum(buf)
	scratch.PutFloats(buf)
	return total
}

func leakLoopExit(n int) {
	buf := scratch.Floats(n)
	fill(buf)
	for i := 0; i < n; i++ {
		if done(buf, i) {
			return // want `return leaks scratch\.Floats result "buf": no scratch\.Put\* on this path`
		}
	}
	scratch.PutFloats(buf)
}

// Reading an element consumes data, not ownership: no escape, still a leak.
func leakElementRead(n int) float64 {
	buf := scratch.Floats(n) // want `scratch\.Floats result "buf" never reaches scratch\.Put\* on any path`
	fill(buf)
	apex := buf[0]
	return apex
}

// ---- shapes the analyzer must accept ----

func okDefer(n int) float64 {
	buf := scratch.Floats(n)
	defer scratch.PutFloats(buf)
	fill(buf)
	return sum(buf)
}

func okLinear(n int) float64 {
	buf := scratch.Floats(n)
	fill(buf)
	total := sum(buf)
	scratch.PutFloats(buf)
	return total
}

// The double-buffer loop from the stencil evolutions: each Put matches the
// previous iteration's buffer, the handoff `cur = next` transfers ownership.
func okLoopCarried(n, steps int) {
	cur := scratch.Floats(n)
	for i := 0; i < steps; i++ {
		next := scratch.Floats(n)
		fill(next)
		scratch.PutFloats(cur)
		cur = next
	}
	scratch.PutFloats(cur)
}

// Returning the buffer transfers ownership to the caller.
func okReturned(n int) []float64 {
	buf := scratch.Floats(n)
	fill(buf)
	return buf
}

// Storing the buffer transfers ownership to the structure's owner.
func okStored(s *state, n int) {
	buf := scratch.Floats(n)
	fill(buf)
	s.buf = buf
}

// Acquired straight into a field: never locally owned.
func okStoredDirect(s *state, n int) {
	s.buf = scratch.Floats(n)
}

// Reslicing aliases the backing array: ownership tracking ends, the alias
// owns the obligation.
func okResliced(n int) {
	buf := scratch.Floats(2 * n)
	head := buf[:n]
	fill(head)
	scratch.PutFloats(buf)
}
