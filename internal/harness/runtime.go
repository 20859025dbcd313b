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
// testing.Benchmark runs; the JSON record carries its IQR and sample count.

func init() {
	register(Experiment{"fig5a", "parallel running time, BOPM American call (fft-bopm vs ql-bopm vs zb-bopm)", fig5("fig5a", "bopm", "ql", "zb")})
	register(Experiment{"fig5b", "parallel running time, TOPM American call (fft-topm vs vanilla-topm)", fig5("fig5b", "topm", "vanilla")})
	register(Experiment{"fig5c", "parallel running time, BSM American put (fft-bsm vs vanilla-bsm)", fig5("fig5c", "bsm", "vanilla")})
	register(Experiment{"table5", "parallel run time vs worker count p at T=2^15 (fft-bopm vs ql-bopm)", table5})
	register(Experiment{"table2", "empirical work-scaling exponents vs Table 2 asymptotics", table2})
	register(Experiment{"ablation", "fast-solver base-case and tile-size sensitivity", ablation})
}

// time times c at T steps (timeCase) and records the timing as the cell
// (row, col) of t.
func (t *Table) time(row, col string, c Case, T int) (Timing, error) {
	tm, err := timeCase(c, T)
	if err == nil {
		t.Timed = append(t.Timed, TimedCell{row, col, tm})
	}
	return tm, err
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
		for _, T := range powersOf2(1<<11, cfg.MaxT) {
			row := []string{fmt.Sprint(T)}
			tf, err := t.time(row[0], fast.String(), fast, T)
			if err != nil {
				return nil, err
			}
			row = append(row, secs(tf.Median))
			spd := "-"
			for i, alg := range baselines {
				if T > cfg.MaxQuadT {
					row = append(row, "-")
					continue
				}
				c := Case{modelName, alg}
				tb, err := t.time(row[0], c.String(), c, T)
				if err != nil {
					return nil, err
				}
				row = append(row, secs(tb.Median))
				if i == 0 {
					spd = ratio(tb.Median, tf.Median)
				}
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
	for _, p := range []int{1, 2, 4, 8, 16, 32, 48} {
		if p > 2*runtime.NumCPU() {
			break
		}
		par.SetWorkers(p)
		row := []string{fmt.Sprint(p)}
		for _, c := range cases {
			tm, err := t.time(row[0], c.String(), c, T)
			if err != nil {
				return nil, err
			}
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
	var sublinear []string
	for _, r := range table2Rows {
		times := make([]float64, len(ts))
		cells := make([]string, len(ts))
		for i, T := range ts {
			tm, err := t.time(r.name, "T="+pow2(T), r.c, T)
			if err != nil {
				return nil, err
			}
			times[i] = tm.Median
			lg := math.Log2(float64(T))
			cells[i] = fmt.Sprintf("%.3g", tm.Median*1e9/(float64(T)*lg*lg))
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
	T := min(1<<15, cfg.MaxT)
	m, err := newModel("bopm", T)
	if err != nil {
		return nil, err
	}
	base := &Table{
		ID:     "ablation-basecase",
		Title:  fmt.Sprintf("fast-solver recursion cutoff sweep at T=%d (paper: 8 is best)", T),
		Header: []string{"base case", "fft-bopm seconds"},
	}
	for _, b := range []int{2, 4, 8, 16, 32, 64, 128} {
		m.setBaseCase(b)
		tm, err := sample(func() (float64, error) { return m.fast(nil) })
		if err != nil {
			return nil, err
		}
		base.Timed = append(base.Timed, TimedCell{fmt.Sprint(b), "fft-bopm", tm})
		base.Rows = append(base.Rows, []string{fmt.Sprint(b), secs(tm.Median)})
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
	for _, wh := range [][2]int{{256, 32}, {1024, 128}, {2048, 256}, {2048, 512}, {4096, 512}, {8192, 1024}} {
		tm, err := sample(func() (float64, error) { return sweep.Tiled(p, wh[0], wh[1]), nil })
		if err != nil {
			return nil, err
		}
		tiles.Timed = append(tiles.Timed, TimedCell{fmt.Sprintf("%dx%d", wh[0], wh[1]), "zb-bopm", tm})
		tiles.Rows = append(tiles.Rows, []string{fmt.Sprint(wh[0]), fmt.Sprint(wh[1]), secs(tm.Median)})
	}
	return []*Table{base, tiles}, nil
}
