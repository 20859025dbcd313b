package harness

import (
	"fmt"
	"math"

	"github.com/nlstencil/amop/internal/option"
)

// Accuracy experiment: the paper's implicit claim that all algorithms price
// identically, plus convergence of the discretizations to the closed form.

func init() {
	register(Experiment{"accuracy", "fast-vs-naive agreement and convergence to Black-Scholes", accuracy})
}

var accuracyModels = []string{"bopm", "topm", "bsm"}

func accuracy(cfg Config) ([]*Table, error) {
	agree := &Table{
		ID:     "accuracy-agreement",
		Title:  "relative |fast - naive| per model",
		Header: append([]string{"T"}, accuracyModels...),
	}
	for _, T := range powersOf2(1<<10, min(cfg.MaxQuadT, 1<<14)) {
		row := []string{fmt.Sprint(T)}
		for _, name := range accuracyModels {
			var prices [2]float64
			for i, alg := range []string{"fft", "naive"} {
				s, err := Case{name, alg}.Build(T)
				if err != nil {
					return nil, err
				}
				if prices[i], err = s.Solve(); err != nil {
					return nil, err
				}
			}
			row = append(row, fmt.Sprintf("%.2e", relErr(prices[0], prices[1])))
		}
		agree.Rows = append(agree.Rows, row)
	}

	conv := &Table{
		ID:     "accuracy-convergence",
		Title:  "European lattice/FD price vs Black-Scholes closed form (call for lattices, put for BSM)",
		Header: []string{"T", "bopm-err", "topm-err", "bsm-err"},
	}
	for _, T := range powersOf2(1<<8, min(cfg.MaxT, 1<<14)) {
		row := []string{fmt.Sprint(T)}
		for _, name := range accuracyModels {
			m, err := newModel(name, T)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2e", math.Abs(m.european()-option.BlackScholes(option.Default(), m.kind))))
		}
		conv.Rows = append(conv.Rows, row)
	}
	return []*Table{agree, conv}, nil
}

func relErr(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}
