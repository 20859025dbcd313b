package harness

import (
	"fmt"
	"testing"

	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/bsm"
	"github.com/nlstencil/amop/internal/cachesim"
	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/lattice"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/sweep"
	"github.com/nlstencil/amop/internal/topm"
	"github.com/nlstencil/amop/internal/trace"
)

// Case is one (model, algorithm) pair of the paper's evaluation. Every
// experiment and Go benchmark that times or traces a solver builds it here,
// so each pair maps to its solver in one place.
//
// Models: bopm and topm (binomial and trinomial trees, American call), bsm
// (Black-Scholes-Merton grid, American put). Algorithms: fft (the
// production fast solve) and the sweeps of package sweep: ql and vanilla
// (the paper's names for the row-parallel loop on the binomial tree and on
// the others), zb (split tiling), rec (recursive tiling) and naive (the
// serial loop).
type Case struct {
	Model string
	Alg   string
}

// String is the paper's label for the case, e.g. fft-bopm.
func (c Case) String() string { return c.Alg + "-" + c.Model }

// model is one of the paper's models built at T steps as a lattice, with
// the kind of option it prices: a call on the trees, a put on the BSM grid.
type model struct {
	*lattice.Model
	kind option.Kind
}

func newModel(name string, T int) (model, error) {
	p := option.Default()
	switch name {
	case "bopm":
		m, err := bopm.New(p, T)
		return model{m, option.Call}, err
	case "topm":
		m, err := topm.New(p, T)
		return model{m, option.Call}, err
	case "bsm":
		m, err := bsm.New(p, T, 0)
		if err != nil {
			return model{}, err
		}
		return model{m.Model, option.Put}, nil
	}
	return model{}, fmt.Errorf("unknown model %q", name)
}

// fast is the model's fast solve.
func (m model) fast(st *fbstencil.Stats) (float64, error) {
	if m.kind == option.Put {
		return m.PriceFastPutStats(st)
	}
	return m.PriceFastStats(st)
}

// european is the model's European price (one FFT evolution).
func (m model) european() float64 { return m.PriceEuropean(m.kind) }

// problem is the problem the model's baseline sweeps solve.
func (m model) problem() *sweep.Problem { return m.SweepProblem(m.kind) }

func tiled(p *sweep.Problem) float64 { return sweep.Tiled(p, 0, 0) }

// sweeps maps each baseline to the sweep that is timed and the sweep whose
// steps the cache simulator replays. The row-parallel loop records its steps
// serially, so ql and vanilla replay the serial loop's one in-place row.
var sweeps = map[string]struct{ run, replay func(*sweep.Problem) float64 }{
	"ql":      {sweep.NaiveParallel, sweep.Naive},
	"vanilla": {sweep.NaiveParallel, sweep.Naive},
	"zb":      {tiled, tiled},
	"rec":     {sweep.Recursive, sweep.Recursive},
	"naive":   {sweep.Naive, sweep.Naive},
}

// Solver is a case built at T steps: Solve is the timed solve, returning
// the price, and Replay the same solve replayed on a simulated cache
// hierarchy.
type Solver struct {
	Solve  func() (float64, error)
	Replay func(h *cachesim.Hierarchy) error
}

// Build builds c at T steps.
func (c Case) Build(T int) (Solver, error) {
	m, err := newModel(c.Model, T)
	if err != nil {
		return Solver{}, err
	}
	if c.Alg == "fft" {
		return Solver{
			Solve:  func() (float64, error) { return m.fast(nil) },
			Replay: func(h *cachesim.Hierarchy) error { _, err := trace.Replay(h, m.fast); return err },
		}, nil
	}
	s, ok := sweeps[c.Alg]
	if !ok {
		return Solver{}, fmt.Errorf("unknown algorithm %q", c.Alg)
	}
	p := m.problem()
	return Solver{
		Solve:  func() (float64, error) { return s.run(p), nil },
		Replay: func(h *cachesim.Hierarchy) error { _, err := trace.ReplaySweep(h, p, s.replay); return err },
	}, nil
}

// samples is the number of testing.Benchmark runs behind each timed point.
const samples = 5

// Timing is one timed point: the median and interquartile range of the time
// per solve over Samples runs of testing.Benchmark.
type Timing struct {
	Median  float64 `json:"median_s"`
	IQR     float64 `json:"iqr_s"`
	Samples int     `json:"samples"`
}

// timer samples the timed cells of a table round robin: each of samples
// rounds makes one testing.Benchmark run of every cell, in the order they
// were added, so a slow phase of the machine falls on all of the table's
// cells alike instead of on the few it would cover in one cell's turn.
type timer struct{ cells []timedCell }

type timedCell struct {
	row, col string
	setup    func() // run before each of the cell's samples; nil: none
	solve    func() (float64, error)
	tm       *Timing
}

// add queues the cell (row, col): solve, timed after setup. run fills the
// Timing it returns.
func (tr *timer) add(row, col string, setup func(), solve func() (float64, error)) *Timing {
	tm := new(Timing)
	tr.cells = append(tr.cells, timedCell{row, col, setup, solve, tm})
	return tm
}

// addCase builds c at T steps and queues its solve as the cell (row, col).
func (tr *timer) addCase(row, col string, setup func(), c Case, T int) (*Timing, error) {
	s, err := c.Build(T)
	if err != nil {
		return nil, err
	}
	return tr.add(row, col, setup, func() (float64, error) {
		v, err := s.Solve()
		if err != nil {
			err = fmt.Errorf("%s at T=%d: %w", c, T, err)
		}
		return v, err
	}), nil
}

// run samples every queued cell and records each timing, in the order the
// cells were added, as a timed cell of t (nil: nowhere). A failed solve ends
// the timing, and its error is returned.
func (tr *timer) run(t *Table) error {
	secs := make([][]float64, len(tr.cells))
	for range samples {
		for j, c := range tr.cells {
			if c.setup != nil {
				c.setup()
			}
			var err error
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err = c.solve(); err != nil {
						b.FailNow()
					}
				}
			})
			if err != nil {
				return err
			}
			secs[j] = append(secs[j], r.T.Seconds()/float64(r.N))
		}
	}
	for j, c := range tr.cells {
		*c.tm = Timing{Median: percentile(secs[j], 0.5), IQR: percentile(secs[j], 0.75) - percentile(secs[j], 0.25), Samples: samples}
		if t != nil {
			t.Timed = append(t.Timed, TimedCell{c.row, c.col, *c.tm})
		}
	}
	return nil
}
