package lattice

// Swap and PutProblem expose the swapped model and the put's green-left
// instance to the external tests.
var (
	Swap       = (*Model).swap
	PutProblem = (*Model).putProblem
)
