package harness

import (
	"fmt"
	"sync"

	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/bsm"
	"github.com/nlstencil/amop/internal/cachesim"
	"github.com/nlstencil/amop/internal/energy"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/sweep"
	"github.com/nlstencil/amop/internal/topm"
	"github.com/nlstencil/amop/internal/trace"
)

// Counter experiments: Figures 6 (total energy), 7 (L1/L2 misses) and 10
// (pkg/RAM energy split). One traced run per (model, algorithm, T) feeds all
// three; results are memoized for the life of the process.

func init() {
	register(Experiment{"fig6", "total energy consumption model (fig6a BOPM, fig6b TOPM, fig6c BSM)", fig6})
	register(Experiment{"fig7", "simulated L1 and L2 cache misses (fig7a-f)", fig7})
	register(Experiment{"fig10", "energy split by domain: package vs RAM", fig10})
}

type tracedPoint struct {
	counters cachesim.Counters
	seconds  float64 // production wall time at the same (model, alg, T)
}

var (
	tracedMu    sync.Mutex
	tracedCache = map[string]tracedPoint{}
)

// tracedRun replays one (model, alg, T) on a simulated hierarchy and
// measures the production implementation's wall time. The fft column
// replays the recorded schedule of the production fast solve (trace.Replay);
// the others replay the recorded steps of internal/sweep's baselines
// (trace.ReplaySweep).
func tracedRun(model, alg string, T int) (tracedPoint, error) {
	key := fmt.Sprintf("%s/%s/%d", model, alg, T)
	tracedMu.Lock()
	defer tracedMu.Unlock()
	if p, ok := tracedCache[key]; ok {
		return p, nil
	}
	prm := option.Default()
	h := cachesim.NewSKX()
	var seconds float64
	switch model {
	case "bopm", "topm":
		newTree := bopm.New
		if model == "topm" {
			newTree = topm.New
		}
		m, err := newTree(prm, T)
		if err != nil {
			return tracedPoint{}, err
		}
		switch alg {
		case "fft":
			_, err = trace.Replay(h, m.PriceFastStats)
			seconds = timeIt(func() { m.PriceFast() }) //nolint:errcheck
		case "ql", "vanilla": // the paper's names for the row-parallel loop on each tree
			_, err = trace.ReplaySweep(h, m.SweepProblem(option.Call), sweep.Naive)
			seconds = timeIt(func() { m.PriceNaiveParallel(option.Call) })
		case "zb":
			_, err = trace.ReplaySweep(h, m.SweepProblem(option.Call), func(p *sweep.Problem) float64 { return sweep.Tiled(p, 0, 0) })
			seconds = timeIt(func() { m.PriceTiled(option.Call, 0, 0) })
		case "rec":
			_, err = trace.ReplaySweep(h, m.SweepProblem(option.Call), sweep.Recursive)
			seconds = timeIt(func() { m.PriceRecursive(option.Call) })
		default:
			return tracedPoint{}, fmt.Errorf("unknown %s algorithm %q", model, alg)
		}
		if err != nil {
			return tracedPoint{}, err
		}
	case "bsm":
		m, err := bsm.New(prm, T, 0)
		if err != nil {
			return tracedPoint{}, err
		}
		switch alg {
		case "fft":
			_, err = trace.Replay(h, m.PriceFastStats)
			seconds = timeIt(func() { m.PriceFast() }) //nolint:errcheck
		case "vanilla":
			_, err = trace.ReplaySweep(h, m.SweepProblem(), sweep.Naive)
			seconds = timeIt(func() { m.PriceNaiveParallel() })
		default:
			return tracedPoint{}, fmt.Errorf("unknown bsm algorithm %q", alg)
		}
		if err != nil {
			return tracedPoint{}, err
		}
	default:
		return tracedPoint{}, fmt.Errorf("unknown model %q", model)
	}
	p := tracedPoint{counters: h.Snapshot(), seconds: seconds}
	tracedCache[key] = p
	return p, nil
}

// counterModels maps each paper subfigure to its algorithm legend.
var counterModels = []struct {
	model string
	algs  []string
	sub   string
}{
	{"bopm", []string{"fft", "ql", "zb", "rec"}, "a"},
	{"topm", []string{"fft", "vanilla"}, "b"},
	{"bsm", []string{"fft", "vanilla"}, "c"},
}

func fig6(cfg Config) ([]*Table, error) {
	em := energy.Skylake()
	var tables []*Table
	for _, mm := range counterModels {
		t := &Table{
			ID:     "fig6" + mm.sub,
			Title:  fmt.Sprintf("%s total energy (modeled Joules)", mm.model),
			Note:   "linear event-cost model over simulated counters + static power x measured wall time; see internal/energy",
			Header: append([]string{"T"}, algCols(mm.algs, "")...),
		}
		for _, T := range powersOf2(1<<10, cfg.MaxTraceT) {
			row := []string{fmt.Sprint(T)}
			for _, alg := range mm.algs {
				p, err := tracedRun(mm.model, alg, T)
				if err != nil {
					return nil, err
				}
				row = append(row, num(em.Energy(p.counters, p.seconds).Total))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func fig7(cfg Config) ([]*Table, error) {
	var tables []*Table
	levels := []struct {
		name string
		sub  int // fig7a-c are L1, fig7d-f are L2
		get  func(cachesim.Counters) uint64
	}{
		{"L1", 0, func(c cachesim.Counters) uint64 { return c.L1Misses }},
		{"L2", 3, func(c cachesim.Counters) uint64 { return c.L2Misses }},
	}
	for _, lvl := range levels {
		for i, mm := range counterModels {
			t := &Table{
				ID:     fmt.Sprintf("fig7%c", 'a'+lvl.sub+i),
				Title:  fmt.Sprintf("%s %s cache misses (simulated SKX hierarchy)", mm.model, lvl.name),
				Note:   "set-associative LRU simulation of the SKX geometry; no prefetchers — see the internal/cachesim package doc",
				Header: append([]string{"T"}, algCols(mm.algs, "")...),
			}
			for _, T := range powersOf2(1<<10, cfg.MaxTraceT) {
				row := []string{fmt.Sprint(T)}
				for _, alg := range mm.algs {
					p, err := tracedRun(mm.model, alg, T)
					if err != nil {
						return nil, err
					}
					row = append(row, count(lvl.get(p.counters)))
				}
				t.Rows = append(t.Rows, row)
			}
			tables = append(tables, t)
		}
	}
	return tables, nil
}

func fig10(cfg Config) ([]*Table, error) {
	em := energy.Skylake()
	var tables []*Table
	for _, mm := range counterModels {
		t := &Table{
			ID:     "fig10" + mm.sub,
			Title:  fmt.Sprintf("%s energy by domain (modeled Joules)", mm.model),
			Header: append([]string{"T"}, append(algCols(mm.algs, "-pkg"), algCols(mm.algs, "-ram")...)...),
		}
		for _, T := range powersOf2(1<<10, cfg.MaxTraceT) {
			row := []string{fmt.Sprint(T)}
			var pkgs, rams []string
			for _, alg := range mm.algs {
				p, err := tracedRun(mm.model, alg, T)
				if err != nil {
					return nil, err
				}
				b := em.Energy(p.counters, p.seconds)
				pkgs = append(pkgs, num(b.Pkg))
				rams = append(rams, num(b.RAM))
			}
			row = append(row, pkgs...)
			row = append(row, rams...)
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func algCols(algs []string, suffix string) []string {
	out := make([]string, len(algs))
	for i, a := range algs {
		out[i] = a + suffix
	}
	return out
}
