package lattice

// Swap, ExerciseTable and PutProblem expose the swapped model, the put's
// exercise table and its green-left instance to the external tests.
var (
	Swap          = (*Model).swap
	ExerciseTable = (*Model).exerciseTable
	PutProblem    = (*Model).putProblem
)
