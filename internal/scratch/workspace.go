package scratch

import "math/bits"

// Workspace is one goroutine's scratch buffers for the span of a solve: a
// LIFO freelist per capacity class, with no synchronization. A solve's
// buffers nest, so most of its requests are served by the buffer its last
// Put returned, and only the first request of each nesting level reaches
// the process-wide pools. Flush hands every buffer back to them at the
// end, one batch per class.
//
// A Workspace serves one goroutine at a time. The ownership protocol is the
// process-wide one: Floats hands its caller a buffer with undefined
// contents, and Put returns it. Any buffer of a poolable class may be Put
// to any workspace, since its class comes from its capacity, so a result
// may move between the workspaces of a solve's branches. A nil *Workspace
// is valid and goes straight to the process-wide pools.
type Workspace struct {
	free [maxClass + 1][][]float64
}

// Floats returns a []float64 of length n with undefined contents: the
// buffer of n's class that w received last, or one from the process-wide
// pools (Floats).
func (w *Workspace) Floats(n int) []float64 {
	if w != nil {
		if c := class(n); c >= 0 {
			if l := w.free[c]; len(l) > 0 {
				b := l[len(l)-1]
				l[len(l)-1] = nil
				w.free[c] = l[:len(l)-1]
				return b[:n]
			}
		}
	}
	return Floats(n)
}

// Put returns b to w. A buffer PutFloats would drop is dropped.
func (w *Workspace) Put(b []float64) {
	c := cap(b)
	if w == nil || c < 1<<minClass || c > 1<<maxClass || c&(c-1) != 0 {
		PutFloats(b)
		return
	}
	cls := bits.Len(uint(c)) - 1
	w.free[cls] = append(w.free[cls], b[:0])
}

// Flush hands every buffer w holds to the process-wide pools, one batch
// per class, and leaves w empty and usable.
func (w *Workspace) Flush() {
	if w == nil {
		return
	}
	for c, l := range w.free {
		if len(l) > 0 {
			floatPools.putBatch(c, l)
			clear(l)
			w.free[c] = l[:0]
		}
	}
}
