package trace

import (
	"math"
	"testing"

	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/bsm"
	"github.com/nlstencil/amop/internal/cachesim"
	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/sweep"
	"github.com/nlstencil/amop/internal/topm"
)

// TestSweepReplayMatchesProduction: every baseline sweep, on each model's
// problem, replays with every read finding the step that wrote its cell, and
// recording leaves its result bitwise unchanged. T=333 covers every sweep;
// at T=2048 the default tiles split the trinomial and BSM rows, so both
// phases of the default tiling run too.
func TestSweepReplayMatchesProduction(t *testing.T) {
	runs := []struct {
		name string
		run  func(*sweep.Problem) float64
	}{
		{"Naive", sweep.Naive},
		{"NaiveParallel", sweep.NaiveParallel},
		{"Tiled", func(p *sweep.Problem) float64 { return sweep.Tiled(p, 0, 0) }},
		{"Tiled37x5", func(p *sweep.Problem) float64 { return sweep.Tiled(p, 37, 5) }},
		{"Recursive", sweep.Recursive},
	}
	for _, T := range []int{333, 2048} {
		b, err := bopm.New(option.Default(), T)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := topm.New(option.Default(), T)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := bsm.New(option.Default(), T, 0)
		if err != nil {
			t.Fatal(err)
		}
		problems := []struct {
			name string
			p    *sweep.Problem
		}{
			{"bopm-call", b.SweepProblem(option.Call)},
			{"topm-call", tm.SweepProblem(option.Call)},
			{"bsm-put", bm.SweepProblem(option.Put)},
		}
		for _, pp := range problems {
			for _, rr := range runs {
				if T > 333 && rr.name != "Tiled" {
					continue
				}
				want := rr.run(pp.p)
				got, err := ReplaySweep(cachesim.NewSKX(), pp.p, rr.run)
				if err != nil {
					t.Errorf("%s T=%d %s: %v", pp.name, T, rr.name, err)
				}
				if got != want {
					t.Errorf("%s T=%d %s: recorded %v, production %v", pp.name, T, rr.name, got, want)
				}
			}
		}
		if got, want := sweep.Naive(bm.SweepProblem(option.Put)), bm.PriceNaive(option.Put); got != want {
			t.Errorf("bsm-put T=%d: Naive %v, PriceNaive %v", T, got, want)
		}
	}
}

// TestReplayMatchesProductionStats: the replay executes the schedule the
// production engine runs. The recorded solve's trapezoid, direct-cell and
// FFT counts equal the Stats of an unrecorded solve at the default worker
// count, whose zone recursion forks, and recording leaves the price bitwise
// unchanged. Every read the replay makes, FFT inputs included, finds the
// step that wrote its cell. In the deep in-the-money put the boundary
// reaches the apex, so the solve ends in direct steps whose windows start
// with green cells filled from the obstacle.
func TestReplayMatchesProductionStats(t *testing.T) {
	type pricer interface {
		PriceFastStats(*fbstencil.Stats) (float64, error)
	}
	itm := option.Default()
	itm.S, itm.R = 100, 0.05
	models := []struct {
		name string
		make func(T int) (pricer, error)
	}{
		{"bopm-call", func(T int) (pricer, error) { return bopm.New(option.Default(), T) }},
		{"topm-call", func(T int) (pricer, error) { return topm.New(option.Default(), T) }},
		{"bsm-put", func(T int) (pricer, error) { return bsm.New(option.Default(), T, 0) }},
		{"bsm-put-itm", func(T int) (pricer, error) { return bsm.New(itm, T, 0) }},
	}
	counts := func(st *fbstencil.Stats) [4]int64 {
		return [4]int64{st.Trapezoids.Load(), st.NaiveCells.Load(), st.FFTCalls.Load(), st.FFTCells.Load()}
	}
	for _, mm := range models {
		for _, T := range []int{333, 1024, 4096} {
			m, err := mm.make(T)
			if err != nil {
				t.Fatal(err)
			}
			var st fbstencil.Stats
			want, err := m.PriceFastStats(&st)
			if err != nil {
				t.Fatal(err)
			}
			r := newReplayer(cachesim.NewSKX())
			got, rec, err := r.replay(m.PriceFastStats)
			if err != nil {
				t.Fatalf("%s T=%d: %v", mm.name, T, err)
			}
			if got != want {
				t.Errorf("%s T=%d: recorded price %v, production %v", mm.name, T, got, want)
			}
			if counts(rec) != counts(&st) {
				t.Errorf("%s T=%d: recorded [trapezoids direct fftCalls fftCells] %v, production %v", mm.name, T, counts(rec), counts(&st))
			}
			if r.unresolved != 0 || r.stale != 0 {
				t.Errorf("%s T=%d: %d unwritten and %d rewritten reads", mm.name, T, r.unresolved, r.stale)
			}
		}
	}
}

// TestRecordingParity: recording is a branch inside the engine's one path,
// not a second engine. At base case 1, where every zone bottoms out in
// one-row base cases, and at the default base case, a solve recorded into
// the replay and an unrecorded one at the default worker count return the
// same price bits and the same trapezoid, direct-cell and FFT counts, and
// every read the replay makes finds the step that wrote its cell.
func TestRecordingParity(t *testing.T) {
	type model interface {
		PriceFastStats(*fbstencil.Stats) (float64, error)
		SetBaseCase(int)
	}
	const T = 1024
	b, err := bopm.New(option.Default(), T)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := topm.New(option.Default(), T)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := bsm.New(option.Default(), T, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := func(st *fbstencil.Stats) [4]int64 {
		return [4]int64{st.Trapezoids.Load(), st.NaiveCells.Load(), st.FFTCalls.Load(), st.FFTCells.Load()}
	}
	for _, mm := range []struct {
		name string
		m    model
	}{{"bopm-call", b}, {"topm-call", tm}, {"bsm-put", bm}} {
		for _, base := range []int{1, fbstencil.DefaultBaseCase} {
			mm.m.SetBaseCase(base)
			var st fbstencil.Stats
			want, err := mm.m.PriceFastStats(&st)
			if err != nil {
				t.Fatal(err)
			}
			r := newReplayer(cachesim.NewSKX())
			got, rec, err := r.replay(mm.m.PriceFastStats)
			if err != nil {
				t.Fatalf("%s base %d: %v", mm.name, base, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s base %d: recorded price %v, unrecorded %v", mm.name, base, got, want)
			}
			if counts(rec) != counts(&st) {
				t.Errorf("%s base %d: recorded [trapezoids direct fftCalls fftCells] %v, unrecorded %v", mm.name, base, counts(rec), counts(&st))
			}
			if r.unresolved != 0 || r.stale != 0 {
				t.Errorf("%s base %d: %d unwritten and %d rewritten reads", mm.name, base, r.unresolved, r.stale)
			}
		}
	}
}

// TestReplayCatchesMissedWrites: a schedule that leaves out a step's write
// makes the replay fail instead of reading the cell from somewhere else.
func TestReplayCatchesMissedWrites(t *testing.T) {
	m, err := bsm.New(option.Default(), 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := newReplayer(cachesim.NewSKX())
	dropped := false
	_, _, err = r.replay(func(st *fbstencil.Stats) (float64, error) {
		fbstencil.Record(st, func(ev fbstencil.Event) {
			if ev.Kind == fbstencil.EventCopy && !dropped && len(ev.Dst) > 0 {
				dropped = true
				return
			}
			r.apply(ev)
		})
		return m.PriceFastStats(st)
	})
	if !dropped || err == nil {
		t.Fatalf("dropped a copy: %v, replay error: %v", dropped, err)
	}

	// A sweep that leaves out one row update: the next row reads cells past
	// its own end that the dropped update should have rewritten.
	b, err := bopm.New(option.Default(), 333)
	if err != nil {
		t.Fatal(err)
	}
	r = newReplayer(cachesim.NewSKX())
	p := b.SweepProblem(option.Call)
	rows := 0
	p.Record = func(ev fbstencil.Event) {
		if ev.Kind == fbstencil.EventSweep {
			if rows++; rows == 100 {
				return
			}
		}
		r.apply(ev)
	}
	sweep.Naive(p)
	if err := r.err(); rows < 100 || err == nil {
		t.Fatalf("dropped row 100 of %d, replay error: %v", rows, err)
	}
}

// TestMissShape reproduces the qualitative claim of Figure 7: once the row
// no longer fits in L1 (T > 4096 at 8 bytes/cell against a 32 KB L1), the
// quadratic sweep misses far more than the FFT algorithm. Below that size
// the naive sweep's whole working set is L1-resident and the relation flips
// — the same crossover visible at the left edge of the paper's plots.
func TestMissShape(t *testing.T) {
	T := missShapeT
	m, err := bopm.New(option.Default(), T)
	if err != nil {
		t.Fatal(err)
	}
	hNaive := cachesim.NewSKX()
	if _, err := ReplaySweep(hNaive, m.SweepProblem(option.Call), sweep.Naive); err != nil {
		t.Fatal(err)
	}
	hFast := cachesim.NewSKX()
	if _, err := Replay(hFast, m.PriceFastStats); err != nil {
		t.Fatal(err)
	}

	nm := hNaive.Snapshot().L1Misses
	fm := hFast.Snapshot().L1Misses
	if fm*4 > nm {
		t.Errorf("fast L1 misses %d not well below naive %d at T=%d", fm, nm, T)
	}

	// And below the L1 capacity the naive sweep barely misses at all.
	small, err := bopm.New(option.Default(), 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	hSmall := cachesim.NewSKX()
	if _, err := ReplaySweep(hSmall, small.SweepProblem(option.Call), sweep.Naive); err != nil {
		t.Fatal(err)
	}
	if mm := hSmall.Snapshot().L1Misses; mm > 1<<12 {
		t.Errorf("naive at T=2^11 missed %d times; its row should be L1-resident", mm)
	}
}

// TestTiledImprovesOnNaiveL2: the cache-aware tiling's point is fewer deep
// misses than the row-streaming loop once the grid exceeds L1.
func TestTiledImprovesOnNaiveL2(t *testing.T) {
	T := tiledL2T // row > L1
	m, err := bopm.New(option.Default(), T)
	if err != nil {
		t.Fatal(err)
	}
	p := m.SweepProblem(option.Call)

	hNaive := cachesim.NewSKX()
	if _, err := ReplaySweep(hNaive, p, sweep.Naive); err != nil {
		t.Fatal(err)
	}
	hTiled := cachesim.NewSKX()
	if _, err := ReplaySweep(hTiled, p, func(p *sweep.Problem) float64 { return sweep.Tiled(p, 0, 0) }); err != nil {
		t.Fatal(err)
	}

	nl1 := hNaive.Snapshot().L1Misses
	tl1 := hTiled.Snapshot().L1Misses
	if tl1 >= nl1 {
		t.Errorf("tiled L1 misses %d not below naive %d", tl1, nl1)
	}
}

func TestFlopsAccrue(t *testing.T) {
	m, err := bopm.New(option.Default(), 256)
	if err != nil {
		t.Fatal(err)
	}
	h := cachesim.NewSKX()
	if _, err := Replay(h, m.PriceFastStats); err != nil {
		t.Fatal(err)
	}
	if h.Snapshot().Flops == 0 {
		t.Error("no flops recorded")
	}
}
