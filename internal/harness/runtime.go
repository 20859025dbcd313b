package harness

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/sweep"
)

// Wall-clock experiments: Figure 5 (a,b,c), Table 5, and the empirical
// work-scaling check of Table 2. Every timed cell is the median of samples
// testing.Benchmark runs, taken round robin over the table's cells (timer);
// the JSON record carries its IQR and sample count.

func init() {
	register(Experiment{"fig5a", "parallel running time, BOPM American call (fft-bopm vs ql-bopm vs zb-bopm)", fig5("fig5a", "bopm", "ql", "zb")})
	register(Experiment{"fig5b", "parallel running time, TOPM American call (fft-topm vs vanilla-topm)", fig5("fig5b", "topm", "vanilla")})
	register(Experiment{"fig5c", "parallel running time, BSM American put (fft-bsm vs vanilla-bsm)", fig5("fig5c", "bsm", "vanilla")})
	register(Experiment{"table5", "parallel run time vs worker count p at T=2^15 (fft-bopm vs ql-bopm)", table5})
	register(Experiment{"table2", "empirical work-scaling exponents vs Table 2 asymptotics", table2})
	register(Experiment{"ablation", "fast-solver base-case and tile-size sensitivity", ablation})
}

// fig5 times the fast solve of model against its quadratic baselines, the
// first of which is the speedup's base; the baselines stop at MaxQuadT.
func fig5(id, modelName string, baselines ...string) func(Config) ([]*Table, error) {
	return func(cfg Config) ([]*Table, error) {
		fast := Case{modelName, "fft"}
		t := &Table{
			ID:     id,
			Title:  strings.ToUpper(modelName) + " parallel running time (seconds)",
			Note:   fmt.Sprintf("host: %d cores; quadratic baselines capped at T=%d; median of %d samples", runtime.NumCPU(), cfg.MaxQuadT, samples),
			Header: []string{"T", fast.String()},
		}
		for _, alg := range baselines {
			t.Header = append(t.Header, Case{modelName, alg}.String())
		}
		t.Header = append(t.Header, fmt.Sprintf("speedup(%s/fft)", baselines[0]))
		// Per T, the fast timing and the baselines' (nil beyond MaxQuadT).
		cases := []Case{fast}
		for _, alg := range baselines {
			cases = append(cases, Case{modelName, alg})
		}
		Ts := powersOf2(1<<11, cfg.MaxT)
		tms := make([][]*Timing, len(Ts))
		var tr timer
		for i, T := range Ts {
			for _, c := range cases {
				var tm *Timing
				if c == fast || T <= cfg.MaxQuadT {
					var err error
					if tm, err = tr.addCase(fmt.Sprint(T), c.String(), nil, c, T); err != nil {
						return nil, err
					}
				}
				tms[i] = append(tms[i], tm)
			}
		}
		if err := tr.run(t); err != nil {
			return nil, err
		}
		for i, T := range Ts {
			row := []string{fmt.Sprint(T)}
			for _, tm := range tms[i] {
				if tm == nil {
					row = append(row, "-")
				} else {
					row = append(row, secs(tm.Median))
				}
			}
			spd := "-"
			if tms[i][1] != nil {
				spd = ratio(tms[i][1].Median, tms[i][0].Median)
			}
			t.Rows = append(t.Rows, append(row, spd))
		}
		return []*Table{t}, nil
	}
}

func table5(cfg Config) ([]*Table, error) {
	T := min(1<<15, cfg.MaxT)
	cases := []Case{{"bopm", "fft"}, {"bopm", "ql"}}
	t := &Table{
		ID:     "table5",
		Title:  fmt.Sprintf("parallel run times (ms) for T=%d as p varies", T),
		Note:   fmt.Sprintf("host has %d cores; p beyond that oversubscribes; median of %d samples", runtime.NumCPU(), samples),
		Header: []string{"p", cases[0].String(), cases[1].String()},
	}
	prev := par.SetWorkers(0)
	defer par.SetWorkers(prev)
	var tr timer
	var ps []int
	var tms [][]*Timing
	for _, p := range []int{1, 2, 4, 8, 16, 32, 48} {
		if p > 2*runtime.NumCPU() {
			break
		}
		ps = append(ps, p)
		var row []*Timing
		for _, c := range cases {
			tm, err := tr.addCase(fmt.Sprint(p), c.String(), func() { par.SetWorkers(p) }, c, T)
			if err != nil {
				return nil, err
			}
			row = append(row, tm)
		}
		tms = append(tms, row)
	}
	if err := tr.run(t); err != nil {
		return nil, err
	}
	for i, p := range ps {
		row := []string{fmt.Sprint(p)}
		for _, tm := range tms[i] {
			row = append(row, fmt.Sprintf("%.2f", tm.Median*1e3))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// table2Rows are Table 2's work classes, each timed on the binomial model.
var table2Rows = []struct {
	name, bound string
	c           Case
}{
	{"nested-loop(serial)", "Theta(T^2)", Case{"bopm", "naive"}},
	{"tiled-loop", "Theta(T^2)", Case{"bopm", "zb"}},
	{"recursive-tiling", "Theta(T^2)", Case{"bopm", "rec"}},
	{"fft-bopm", "Theta(T log^2 T)", Case{"bopm", "fft"}},
}

// table2 fits each work class's exponent over T=2^11..MaxQuadT and prints
// time/(T log2^2 T) per T beside it, so the row shows where sizes too small
// for the asymptote bend the fit.
func table2(cfg Config) ([]*Table, error) {
	ts := powersOf2(1<<11, max(cfg.MaxQuadT, 1<<11))
	t := &Table{
		ID:     "table2",
		Title:  "empirical runtime scaling exponents (serial work classes of Table 2)",
		Header: []string{"algorithm", "paper work bound", "fitted exponent"},
	}
	for _, T := range ts {
		t.Header = append(t.Header, "T="+pow2(T))
	}
	var tr timer
	tms := make([][]*Timing, len(table2Rows))
	for i, r := range table2Rows {
		for _, T := range ts {
			tm, err := tr.addCase(r.name, "T="+pow2(T), nil, r.c, T)
			if err != nil {
				return nil, err
			}
			tms[i] = append(tms[i], tm)
		}
	}
	if err := tr.run(t); err != nil {
		return nil, err
	}
	var sublinear []string
	for i, r := range table2Rows {
		times := make([]float64, len(ts))
		cells := make([]string, len(ts))
		for j, T := range ts {
			times[j] = tms[i][j].Median
			lg := math.Log2(float64(T))
			cells[j] = fmt.Sprintf("%.3g", times[j]*1e9/(float64(T)*lg*lg))
		}
		e := fitExponent(ts, times)
		if e < 1 {
			sublinear = append(sublinear, r.name)
		}
		t.Rows = append(t.Rows, append([]string{r.name, r.bound, fmt.Sprintf("%.2f", e)}, cells...))
	}
	t.Note = fmt.Sprintf("fitted exponent: slope of log2(time) vs log2(T) over T=%s..%s, ~2 for the Theta(T^2) rows and ~1 for fft; "+
		"T=2^k columns: ns per T log2(T)^2, flat for T log^2 T work; median of %d samples", pow2(ts[0]), pow2(ts[len(ts)-1]), samples)
	if len(sublinear) > 0 {
		t.Note += "; an exponent below 1 (" + strings.Join(sublinear, ", ") + ") measures per-solve overhead at these sizes, not the work bound"
	}
	return []*Table{t}, nil
}

func ablation(cfg Config) ([]*Table, error) {
	// T=4096 is the size of the chain workloads' solves; the largest T the
	// run allows (up to 2^16, the deep solves') is the other column.
	Ts := []int{min(1<<12, cfg.MaxT)}
	if T := min(1<<16, cfg.MaxT); T > Ts[0] {
		Ts = append(Ts, T)
	}
	base := &Table{
		ID:     "ablation-basecase",
		Title:  "fast-solver recursion cutoff sweep (paper: 8 is best)",
		Header: []string{"base case"},
	}
	bases := []int{2, 4, 8, 16, 32, 64, 128}
	var tr timer
	tms := make([][]*Timing, len(bases))
	for _, T := range Ts {
		m, err := newModel("bopm", T)
		if err != nil {
			return nil, err
		}
		col := fmt.Sprintf("fft-bopm seconds T=%d", T)
		base.Header = append(base.Header, col)
		for i, b := range bases {
			tms[i] = append(tms[i], tr.add(fmt.Sprint(b), col, func() { m.SetBaseCase(b) },
				func() (float64, error) { return m.fast(nil) }))
		}
	}
	if err := tr.run(base); err != nil {
		return nil, err
	}
	for i, b := range bases {
		row := []string{fmt.Sprint(b)}
		for _, tm := range tms[i] {
			row = append(row, secs(tm.Median))
		}
		base.Rows = append(base.Rows, row)
	}
	base.Note = fmt.Sprintf("the solvers' default is %d; median of %d samples", fbstencil.DefaultBaseCase, samples)

	Tq := min(1<<14, cfg.MaxQuadT)
	mq, err := newModel("bopm", Tq)
	if err != nil {
		return nil, err
	}
	p := mq.problem()
	tiles := &Table{
		ID:     "ablation-tiles",
		Title:  fmt.Sprintf("tiled-loop tile-size sweep at T=%d", Tq),
		Note:   fmt.Sprintf("median of %d samples", samples),
		Header: []string{"tileW", "tileH", "zb-bopm seconds"},
	}
	var tt timer
	var tiled []*Timing
	sizes := [][2]int{{256, 32}, {1024, 128}, {2048, 256}, {2048, 512}, {4096, 512}, {8192, 1024}}
	for _, wh := range sizes {
		tiled = append(tiled, tt.add(fmt.Sprintf("%dx%d", wh[0], wh[1]), "zb-bopm", nil,
			func() (float64, error) { return sweep.Tiled(p, wh[0], wh[1]), nil }))
	}
	if err := tt.run(tiles); err != nil {
		return nil, err
	}
	for i, wh := range sizes {
		tiles.Rows = append(tiles.Rows, []string{fmt.Sprint(wh[0]), fmt.Sprint(wh[1]), secs(tiled[i].Median)})
	}
	return []*Table{base, tiles}, nil
}
