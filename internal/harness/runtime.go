package harness

import (
	"fmt"
	"runtime"

	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/bsm"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/par"
	"github.com/nlstencil/amop/internal/topm"
)

// Wall-clock experiments: Figure 5 (a,b,c), Table 5, and the empirical
// work-scaling check of Table 2.

func init() {
	register(Experiment{"fig5a", "parallel running time, BOPM American call (fft-bopm vs ql-bopm vs zb-bopm)", fig5a})
	register(Experiment{"fig5b", "parallel running time, TOPM American call (fft-topm vs vanilla-topm)", fig5b})
	register(Experiment{"fig5c", "parallel running time, BSM American put (fft-bsm vs vanilla-bsm)", fig5c})
	register(Experiment{"table5", "parallel run time vs worker count p at T=2^15 (fft-bopm vs ql-bopm)", table5})
	register(Experiment{"table2", "empirical work-scaling exponents vs Table 2 asymptotics", table2})
	register(Experiment{"ablation", "fast-solver base-case and tile-size sensitivity", ablation})
}

func fig5a(cfg Config) ([]*Table, error) {
	prm := option.Default()
	t := &Table{
		ID:     "fig5a",
		Title:  "BOPM parallel running time (seconds)",
		Note:   fmt.Sprintf("host: %d cores; quadratic baselines capped at T=%d", runtime.NumCPU(), cfg.MaxQuadT),
		Header: []string{"T", "fft-bopm", "ql-bopm", "zb-bopm", "speedup(ql/fft)"},
	}
	for _, T := range powersOf2(1<<11, cfg.MaxT) {
		m, err := bopm.New(prm, T)
		if err != nil {
			return nil, err
		}
		tf := timeIt(func() {
			if _, err := m.PriceFast(); err != nil {
				panic(err)
			}
		})
		ql, zb, spd := "-", "-", "-"
		if T <= cfg.MaxQuadT {
			tq := timeIt(func() { m.PriceNaiveParallel(option.Call) })
			tz := timeIt(func() { m.PriceTiled(option.Call, 0, 0) })
			ql, zb, spd = secs(tq), secs(tz), ratio(tq, tf)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(T), secs(tf), ql, zb, spd})
	}
	return []*Table{t}, nil
}

func fig5b(cfg Config) ([]*Table, error) {
	prm := option.Default()
	t := &Table{
		ID:     "fig5b",
		Title:  "TOPM parallel running time (seconds)",
		Note:   fmt.Sprintf("host: %d cores; vanilla baseline capped at T=%d", runtime.NumCPU(), cfg.MaxQuadT),
		Header: []string{"T", "fft-topm", "vanilla-topm", "speedup"},
	}
	for _, T := range powersOf2(1<<11, cfg.MaxT) {
		m, err := topm.New(prm, T)
		if err != nil {
			return nil, err
		}
		tf := timeIt(func() {
			if _, err := m.PriceFast(); err != nil {
				panic(err)
			}
		})
		van, spd := "-", "-"
		if T <= cfg.MaxQuadT {
			tv := timeIt(func() { m.PriceNaiveParallel(option.Call) })
			van, spd = secs(tv), ratio(tv, tf)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(T), secs(tf), van, spd})
	}
	return []*Table{t}, nil
}

func fig5c(cfg Config) ([]*Table, error) {
	prm := option.Default()
	t := &Table{
		ID:     "fig5c",
		Title:  "BSM parallel running time (seconds)",
		Note:   fmt.Sprintf("host: %d cores; vanilla baseline capped at T=%d", runtime.NumCPU(), cfg.MaxQuadT),
		Header: []string{"T", "fft-bsm", "vanilla-bsm", "speedup"},
	}
	for _, T := range powersOf2(1<<11, cfg.MaxT) {
		m, err := bsm.New(prm, T, 0)
		if err != nil {
			return nil, err
		}
		tf := timeIt(func() {
			if _, err := m.PriceFast(); err != nil {
				panic(err)
			}
		})
		van, spd := "-", "-"
		if T <= cfg.MaxQuadT {
			tv := timeIt(func() { m.PriceNaiveParallel() })
			van, spd = secs(tv), ratio(tv, tf)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(T), secs(tf), van, spd})
	}
	return []*Table{t}, nil
}

func table5(cfg Config) ([]*Table, error) {
	prm := option.Default()
	T := 1 << 15
	if T > cfg.MaxT {
		T = cfg.MaxT
	}
	m, err := bopm.New(prm, T)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "table5",
		Title:  fmt.Sprintf("parallel run times (ms) for T=%d as p varies", T),
		Note:   fmt.Sprintf("host has %d cores; p beyond that oversubscribes", runtime.NumCPU()),
		Header: []string{"p", "fft-bopm", "ql-bopm"},
	}
	defer par.SetWorkers(0)
	for _, p := range []int{1, 2, 4, 8, 16, 32, 48} {
		if p > 2*runtime.NumCPU() {
			break
		}
		par.SetWorkers(p)
		tf := timeIt(func() {
			if _, err := m.PriceFast(); err != nil {
				panic(err)
			}
		})
		tq := timeIt(func() { m.PriceNaiveParallel(option.Call) })
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p),
			fmt.Sprintf("%.2f", tf*1e3),
			fmt.Sprintf("%.2f", tq*1e3),
		})
	}
	return []*Table{t}, nil
}

func table2(cfg Config) ([]*Table, error) {
	prm := option.Default()
	maxFit := cfg.MaxQuadT
	ts := powersOf2(1<<11, maxFit)
	series := map[string][]float64{}
	for _, T := range ts {
		m, err := bopm.New(prm, T)
		if err != nil {
			return nil, err
		}
		series["fft-bopm"] = append(series["fft-bopm"], timeIt(func() {
			if _, err := m.PriceFast(); err != nil {
				panic(err)
			}
		}))
		series["nested-loop(serial)"] = append(series["nested-loop(serial)"], timeIt(func() { m.PriceNaive(option.Call) }))
		series["tiled-loop"] = append(series["tiled-loop"], timeIt(func() { m.PriceTiled(option.Call, 0, 0) }))
		series["recursive-tiling"] = append(series["recursive-tiling"], timeIt(func() { m.PriceRecursive(option.Call) }))
	}
	t := &Table{
		ID:     "table2",
		Title:  "empirical runtime scaling exponents (serial work classes of Table 2)",
		Note:   fmt.Sprintf("fit of log2(time) vs log2(T) over T=2^11..%d; expect ~2 for the Theta(T^2) rows, ~1+o(1) for fft", maxFit),
		Header: []string{"algorithm", "paper work bound", "fitted exponent"},
	}
	expect := map[string]string{
		"nested-loop(serial)": "Theta(T^2)",
		"tiled-loop":          "Theta(T^2)",
		"recursive-tiling":    "Theta(T^2)",
		"fft-bopm":            "Theta(T log^2 T)",
	}
	for _, name := range []string{"nested-loop(serial)", "tiled-loop", "recursive-tiling", "fft-bopm"} {
		t.Rows = append(t.Rows, []string{name, expect[name], fmt.Sprintf("%.2f", fitExponent(ts, series[name]))})
	}
	return []*Table{t}, nil
}

func ablation(cfg Config) ([]*Table, error) {
	prm := option.Default()
	T := min(1<<15, cfg.MaxT)
	m, err := bopm.New(prm, T)
	if err != nil {
		return nil, err
	}
	base := &Table{
		ID:     "ablation-basecase",
		Title:  fmt.Sprintf("fast-solver recursion cutoff sweep at T=%d (paper: 8 is best)", T),
		Header: []string{"base case", "fft-bopm seconds"},
	}
	for _, b := range []int{2, 4, 8, 16, 32, 64, 128} {
		m.SetBaseCase(b)
		tf := timeIt(func() {
			if _, err := m.PriceFast(); err != nil {
				panic(err)
			}
		})
		base.Rows = append(base.Rows, []string{fmt.Sprint(b), secs(tf)})
	}
	m.SetBaseCase(0)

	Tq := min(1<<14, cfg.MaxQuadT)
	mq, err := bopm.New(prm, Tq)
	if err != nil {
		return nil, err
	}
	tiles := &Table{
		ID:     "ablation-tiles",
		Title:  fmt.Sprintf("tiled-loop tile-size sweep at T=%d", Tq),
		Header: []string{"tileW", "tileH", "zb-bopm seconds"},
	}
	for _, wh := range [][2]int{{256, 32}, {1024, 128}, {2048, 256}, {2048, 512}, {4096, 512}, {8192, 1024}} {
		tt := timeIt(func() { mq.PriceTiled(option.Call, wh[0], wh[1]) })
		tiles.Rows = append(tiles.Rows, []string{fmt.Sprint(wh[0]), fmt.Sprint(wh[1]), secs(tt)})
	}
	return []*Table{base, tiles}, nil
}
