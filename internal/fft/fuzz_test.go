package fft

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzForwardInverseRoundTrip drives the plane API with arbitrary finite
// real rows. The fuzzer picks the transform size (every power of two up to
// 128, covering the closed-form sizes 1, 2 and 4, the trailing radix-2
// shapes, and the radix-4 ladder) and the sample values; the properties are:
//
//   - ForwardSoA agrees with the O(n^2) DFT — an absolute oracle, so a
//     kernel bug cannot hide by breaking both directions symmetrically;
//   - InverseSoA(ForwardSoA(x)) recovers x.
//
// Values are squashed into a bounded range: overflow to Inf is not an
// interesting finding (the transform is linear), but any disagreement with
// the oracle on finite data is.
func FuzzForwardInverseRoundTrip(f *testing.F) {
	f.Add(uint8(2), []byte{})
	f.Add(uint8(3), []byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0x40, 0x08, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(5), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint8(6), []byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88})
	f.Add(uint8(0), []byte{0x80})
	f.Fuzz(func(t *testing.T, lg uint8, data []byte) {
		n := 1 << (lg % 8) // 1 .. 128
		x := make([]float64, n)
		for i := range x {
			x[i] = fuzzSample(data, i)
		}
		rp := RPlanFor(n)
		spec := forwardSoA(rp, x)
		if d := maxAbsDiff(spec, naiveDFT(toComplex(x), false)[:n/2+1]); !(d <= 1e-9) {
			t.Errorf("n=%d: forward differs from naive DFT by %g", n, d)
		}
		out := inverseSoA(rp, spec)
		for i := range x {
			if !(math.Abs(out[i]-x[i]) <= 1e-9) {
				t.Errorf("n=%d: round trip error %g at %d", n, out[i]-x[i], i)
				break
			}
		}
	})
}

// fuzzSample derives the idx-th sample from the fuzz payload: 8 bytes
// reinterpreted as a float64, squashed into [-1, 1] so partial sums stay
// finite for any input. Indices past the payload cycle through it (an empty
// payload yields zeros).
func fuzzSample(data []byte, idx int) float64 {
	if len(data) == 0 {
		return 0
	}
	var chunk [8]byte
	for j := range chunk {
		chunk[j] = data[(8*idx+j)%len(data)]
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(chunk[:]))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 1
	}
	// Squash arbitrary magnitudes smoothly; preserves sign and small values.
	return v / (1 + math.Abs(v))
}
