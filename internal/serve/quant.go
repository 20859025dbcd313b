// Package serve holds the market-data side of the live pricing server: the
// input quantizer that keys the server's dirty tracking, the singleflight
// coalescer that folds concurrent repricing requests into one batch, and the
// process-wide serving counters, registered in the obs metrics registry.
//
// The package is deliberately free of pricing concerns — it never imports the
// root amop package — so the server proper (amop.Server) can sit at the top
// of the module and reuse the batch engine underneath.
package serve

import "math"

// Quantizer buckets the three live market inputs — spot, volatility, rate —
// into discrete cells. The live server prices each contract at its cell's
// representative point, so two ticks landing in the same cell are, by
// construction, the same pricing problem: the dirty tracker compares cell
// keys, not raw floats, and a tick that stays inside every bucket re-solves
// nothing.
//
// A bucket width of zero (or below) disables quantization on that axis: the
// key is the exact bit pattern of the input and every change, however small,
// moves the key. Bucket widths trade quote accuracy for tick-to-tick reuse;
// the representative point is the bucket center, so the worst-case input
// error is half a bucket per axis.
type Quantizer struct {
	SpotBucket float64 // absolute spot bucket width (price units)
	VolBucket  float64 // absolute volatility bucket width (vol points)
	RateBucket float64 // absolute rate bucket width
}

// Key identifies one quantized market state. Keys are comparable; equal keys
// mean the quantizer maps both inputs to the same representative point.
type Key struct {
	Spot, Vol, Rate int64
}

// Key quantizes a market point.
func (q Quantizer) Key(spot, vol, rate float64) Key {
	return Key{
		Spot: bucket(spot, q.SpotBucket),
		Vol:  bucket(vol, q.VolBucket),
		Rate: bucket(rate, q.RateBucket),
	}
}

// Rep returns the representative point the key's cell prices at: the center
// of each bucketed axis, the exact input on unquantized axes.
func (q Quantizer) Rep(spot, vol, rate float64) (float64, float64, float64) {
	return rep(spot, q.SpotBucket), rep(vol, q.VolBucket), rep(rate, q.RateBucket)
}

// bucket maps x to its cell index with floor semantics: cell k covers
// [k*b, (k+1)*b), so an input landing exactly on a boundary belongs to the
// cell above it. The mapping is deterministic — the same x always lands in
// the same cell — which is all dirty tracking needs.
func bucket(x, b float64) int64 {
	if b <= 0 {
		return int64(math.Float64bits(x))
	}
	return int64(math.Floor(x / b))
}

func rep(x, b float64) float64 {
	if b <= 0 {
		return x
	}
	return (math.Floor(x/b) + 0.5) * b
}
