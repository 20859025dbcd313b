package harness

import (
	"fmt"
	"math"

	"github.com/nlstencil/amop/internal/bopm"
	"github.com/nlstencil/amop/internal/bsm"
	"github.com/nlstencil/amop/internal/lattice"
	"github.com/nlstencil/amop/internal/option"
	"github.com/nlstencil/amop/internal/topm"
)

// Accuracy experiment: the paper's implicit claim that all algorithms price
// identically, plus convergence of the discretizations to the closed form.

func init() {
	register(Experiment{"accuracy", "fast-vs-naive agreement and convergence to Black-Scholes", accuracy})
}

func accuracy(cfg Config) ([]*Table, error) {
	prm := option.Default()
	agree := &Table{
		ID:     "accuracy-agreement",
		Title:  "relative |fast - naive| per model",
		Header: []string{"T", "bopm", "topm", "bsm"},
	}
	for _, T := range powersOf2(1<<10, min(cfg.MaxQuadT, 1<<14)) {
		row := []string{fmt.Sprint(T)}

		for _, newTree := range []func(option.Params, int) (*lattice.Model, error){bopm.New, topm.New} {
			m, err := newTree(prm, T)
			if err != nil {
				return nil, err
			}
			f, err := m.PriceFast()
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2e", relErr(f, m.PriceNaive(option.Call))))
		}

		ms, err := bsm.New(prm, T, 0)
		if err != nil {
			return nil, err
		}
		fs, err := ms.PriceFast()
		if err != nil {
			return nil, err
		}
		row = append(row, fmt.Sprintf("%.2e", relErr(fs, ms.PriceNaive())))

		agree.Rows = append(agree.Rows, row)
	}

	conv := &Table{
		ID:     "accuracy-convergence",
		Title:  "European lattice/FD price vs Black-Scholes closed form (call for lattices, put for BSM)",
		Header: []string{"T", "bopm-err", "topm-err", "bsm-err"},
	}
	bsCall := option.BlackScholes(prm, option.Call)
	bsPut := option.BlackScholes(prm, option.Put)
	for _, T := range powersOf2(1<<8, min(cfg.MaxT, 1<<14)) {
		mb, err := bopm.New(prm, T)
		if err != nil {
			return nil, err
		}
		mt, err := topm.New(prm, T)
		if err != nil {
			return nil, err
		}
		ms, err := bsm.New(prm, T, 0)
		if err != nil {
			return nil, err
		}
		conv.Rows = append(conv.Rows, []string{
			fmt.Sprint(T),
			fmt.Sprintf("%.2e", math.Abs(mb.PriceEuropean(option.Call)-bsCall)),
			fmt.Sprintf("%.2e", math.Abs(mt.PriceEuropean(option.Call)-bsCall)),
			fmt.Sprintf("%.2e", math.Abs(ms.PriceEuropean()-bsPut)),
		})
	}
	return []*Table{agree, conv}, nil
}

func relErr(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}
