// Stub of internal/scratch for the scratchpair fixtures: the analyzer
// matches callees by import path, so the fixture tree mirrors the real one.
package scratch

// Floats hands the caller a zeroed buffer; ownership transfers with it.
func Floats(n int) []float64 { return make([]float64, n) }

// PutFloats returns a buffer to the pool.
func PutFloats(b []float64) { _ = b }
