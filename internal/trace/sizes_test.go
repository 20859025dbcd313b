//go:build !race

package trace

// Sizes of the cache-simulator tests whose premise is a row larger than the
// simulated 32 KB L1 (4096 cells). sizes_race_test.go shrinks them under the
// race detector.
const (
	missShapeT = 1 << 14 // TestMissShape
	tiledL2T   = 1 << 13 // TestTiledImprovesOnNaiveL2
)
