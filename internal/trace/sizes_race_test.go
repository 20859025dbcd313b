//go:build race

package trace

// Under the race detector, which slows the simulator about tenfold, the
// cache-simulator tests run at the smallest sizes that keep their premise,
// a row larger than the simulated L1, and their assertions as they are.
// At T=6144 the naive sweep misses L1 4.8 times as often as the fast
// solve (TestMissShape asks for 4); at T=4608 the row is 36 KB and the
// naive sweep misses 11 times as often as the tiled one.
const (
	missShapeT = 6144 // TestMissShape
	tiledL2T   = 4608 // TestTiledImprovesOnNaiveL2
)
