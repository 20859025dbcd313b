package lattice

import "github.com/nlstencil/amop/internal/option"

// Swap, ExerciseTable and PutProblem expose the swapped model, the put's
// exercise table and its green-left instance to the external tests; Ladder
// the tree's shared ladder, TabIndex its layout, and PutAt the put's closed
// form at net move i.
var (
	Swap          = (*Model).swap
	ExerciseTable = (*Model).exerciseTable
	PutProblem    = (*Model).putProblem
	Ladder        = (*Model).ladder
	TabIndex      = (*Model).tabIndex
	PutAt         = func(m *Model, i int) float64 { return m.exercise(option.Put, i) }
)
