package harness

import (
	"fmt"
	"sync"

	"github.com/nlstencil/amop/internal/cachesim"
	"github.com/nlstencil/amop/internal/energy"
)

// Counter experiments: Figures 6 (total energy), 7 (L1/L2 misses) and 10
// (pkg/RAM energy split). One traced run per (model, algorithm, T), memoized
// for the life of the process, feeds all three; the energy figures add the
// production solve's timing.

func init() {
	register(Experiment{"fig6", "total energy consumption model (fig6a BOPM, fig6b TOPM, fig6c BSM)", fig6})
	register(Experiment{"fig7", "simulated L1 and L2 cache misses (fig7a-f)", fig7})
	register(Experiment{"fig10", "energy split by domain: package vs RAM", fig10})
}

var (
	tracedMu    sync.Mutex
	tracedCache = map[string]cachesim.Counters{}
)

// tracedRun replays c at T steps on a simulated hierarchy: the fft column
// replays the production fast solve's recorded schedule, the baselines
// internal/sweep's recorded steps.
func tracedRun(c Case, T int) (cachesim.Counters, error) {
	key := fmt.Sprintf("%s/%d", c, T)
	tracedMu.Lock()
	defer tracedMu.Unlock()
	if ctr, ok := tracedCache[key]; ok {
		return ctr, nil
	}
	s, err := c.Build(T)
	if err != nil {
		return cachesim.Counters{}, err
	}
	h := cachesim.NewSKX()
	if err := s.Replay(h); err != nil {
		return cachesim.Counters{}, fmt.Errorf("%s at T=%d: %w", c, T, err)
	}
	tracedCache[key] = h.Snapshot()
	return tracedCache[key], nil
}

// counterModels lists each paper subfigure's model and algorithm legend.
var counterModels = []struct {
	model string
	algs  []string
}{
	{"bopm", []string{"fft", "ql", "zb", "rec"}},
	{"topm", []string{"fft", "vanilla"}},
	{"bsm", []string{"fft", "vanilla"}},
}

// counterTables builds one table per counterModels entry, id plus the
// entry's letter in subs: a row per traced T and, per algorithm, one column
// for each of cols (a suffix to the algorithm's name) filled by cells from
// the case's simulated counters and, when timed, its solve's timing. The
// timed solves of a table are sampled round robin (timer).
func counterTables(cfg Config, id, subs, title, note string, cols []string, timed bool,
	cells func(ctr cachesim.Counters, tm Timing) []string) ([]*Table, error) {
	var tables []*Table
	for i, mm := range counterModels {
		t := &Table{ID: id + subs[i:i+1], Title: fmt.Sprintf(title, mm.model), Note: note, Header: []string{"T"}}
		for _, alg := range mm.algs {
			for _, col := range cols {
				t.Header = append(t.Header, alg+col)
			}
		}
		var tr timer
		var fills []func()
		for _, T := range powersOf2(1<<10, cfg.MaxTraceT) {
			row := make([]string, 1, 1+len(mm.algs)*len(cols))
			row[0] = fmt.Sprint(T)
			for _, alg := range mm.algs {
				c := Case{mm.model, alg}
				ctr, err := tracedRun(c, T)
				if err != nil {
					return nil, err
				}
				tm := new(Timing)
				if timed {
					if tm, err = tr.addCase(row[0], alg, nil, c, T); err != nil {
						return nil, err
					}
				}
				cell := row[len(row) : len(row)+len(cols)]
				row = row[:len(row)+len(cols)]
				fills = append(fills, func() { copy(cell, cells(ctr, *tm)) })
			}
			t.Rows = append(t.Rows, row)
		}
		if err := tr.run(nil); err != nil {
			return nil, err
		}
		for _, fill := range fills {
			fill()
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func fig6(cfg Config) ([]*Table, error) {
	em := energy.Skylake()
	return counterTables(cfg, "fig6", "abc", "%s total energy (modeled Joules)",
		"linear event-cost model over simulated counters + static power x measured wall time; see internal/energy",
		[]string{""}, true, func(ctr cachesim.Counters, tm Timing) []string {
			return []string{num(em.Energy(ctr, tm.Median).Total)}
		})
}

func fig7(cfg Config) ([]*Table, error) {
	const note = "set-associative LRU simulation of the SKX geometry; no prefetchers — see the internal/cachesim package doc"
	l1, err := counterTables(cfg, "fig7", "abc", "%s L1 cache misses (simulated SKX hierarchy)", note,
		[]string{""}, false, func(ctr cachesim.Counters, _ Timing) []string {
			return []string{count(ctr.L1Misses)}
		})
	if err != nil {
		return nil, err
	}
	l2, err := counterTables(cfg, "fig7", "def", "%s L2 cache misses (simulated SKX hierarchy)", note,
		[]string{""}, false, func(ctr cachesim.Counters, _ Timing) []string {
			return []string{count(ctr.L2Misses)}
		})
	return append(l1, l2...), err
}

func fig10(cfg Config) ([]*Table, error) {
	em := energy.Skylake()
	return counterTables(cfg, "fig10", "abc", "%s energy by domain (modeled Joules)", "",
		[]string{"-pkg", "-ram"}, true, func(ctr cachesim.Counters, tm Timing) []string {
			b := em.Energy(ctr, tm.Median)
			return []string{num(b.Pkg), num(b.RAM)}
		})
}
