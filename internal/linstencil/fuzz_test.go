package linstencil

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
)

// FuzzEvolveCone drives the FFT evolution with arbitrary stencils and rows.
// The fuzzer picks the row length (64..1087, so every size pads up to a
// power of two), the step count k and two to four stencil weights; k is
// raised until the work bound takes the FFT path. Weights and samples are
// squashed into [-1, 1], and the weights scaled to an absolute sum just
// under 1, so the exact evolution stays bounded by the row and any
// disagreement beyond rounding is a finding. The properties:
//
//   - EvolveCone matches EvolveConeNaive (the direct loop) in shape and
//     within 1e-9;
//   - EvolvePeriodic on the largest power-of-two prefix of the row
//     matches EvolvePeriodicNaive within 1e-9.
func FuzzEvolveCone(f *testing.F) {
	f.Add(uint16(0), uint16(0), []byte{2, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint16(300), uint16(17), []byte{3, 1, 0x3f, 0xe0, 0, 0, 0, 0, 0, 0})
	f.Add(uint16(960), uint16(500), []byte{4, 2, 0xbf, 0xf0, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde})
	f.Add(uint16(1023), uint16(1), []byte{1, 5, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88})
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint16, data []byte) {
		if len(data) < 2 {
			return
		}
		nw := 2 + int(data[0])%3
		w := make([]float64, nw)
		for i := range w {
			w[i] = fuzzSample(data[2:], i)
		}
		if math.Abs(w[0]) < 1e-3 {
			w[0] = 1 // keep the normalization below finite
		}
		sum := 0.0
		for _, v := range w {
			sum += math.Abs(v)
		}
		for i := range w {
			w[i] *= 0.999 / sum
		}
		s := Stencil{MinOff: -int(data[1]) % nw, W: w}
		n := 64 + int(nRaw)%1024
		maxK := (n - 1) / s.Span()
		k := 1 + int(kRaw)%maxK
		k = min(max(k, naiveCutoff/(n*nw)+1), maxK)
		row := make([]float64, n)
		for i := range row {
			row[i] = fuzzSample(data[2:], nw+i)
		}

		fast, fp := EvolveCone(row, s, k)
		naive, fpn := EvolveConeNaive(row, s, k)
		if fp != fpn || len(fast) != len(naive) {
			t.Fatalf("n=%d k=%d: shape (%d, %d), naive (%d, %d)", n, k, fp, len(fast), fpn, len(naive))
		}
		for i := range naive {
			if d := math.Abs(fast[i] - naive[i]); !(d <= 1e-9) {
				t.Fatalf("n=%d k=%d w=%v: EvolveCone off the direct loop by %g at %d", n, k, w, d, i)
			}
		}

		ring := row[:1<<(bits.Len(uint(n))-1)]
		kr := int(kRaw) % (2 * len(ring))
		got, want := EvolvePeriodic(ring, s, kr), EvolvePeriodicNaive(ring, s, kr)
		for i := range want {
			if d := math.Abs(got[i] - want[i]); !(d <= 1e-9) {
				t.Fatalf("ring %d k=%d w=%v: EvolvePeriodic off the direct loop by %g at %d", len(ring), kr, w, d, i)
			}
		}
	})
}

// fuzzSample derives the idx-th value from the fuzz payload: 8 bytes read
// as a float64 and squashed into [-1, 1] (NaN and Inf read as 1). Indices
// past the payload cycle through it; an empty payload yields zeros.
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
	return v / (1 + math.Abs(v))
}
