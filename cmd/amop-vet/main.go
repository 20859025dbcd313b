// Command amop-vet is the project's static-analysis gate: a multichecker
// over the custom analyzers in internal/analyzers that mechanically
// enforce the codebase's concurrency and resource invariants —
//
//	budgetpair     par.TryAcquire tokens always reach par.Release
//	scratchpair    scratch buffers reach scratch.Put* or escape ownership
//	atomiccounter  process-wide perf counters only touched via sync/atomic
//	nakedgo        no raw go statements outside the par spawn budget
//	lockedsolve    no lattice solves or blocking serving calls under a mutex
//
// Usage:
//
//	amop-vet [packages]              # defaults to ./...
//
// `make vet` runs it over ./...; CI fails on any finding.
// Findings are suppressed — one reviewed case at a time — with an inline
// directive on the flagged line or the line above:
//
//	//amop:ignore <analyzer> -- <reason>
//	//amop:allow-go <reason>         (nakedgo's spelling, at go statements)
package main

import (
	"github.com/nlstencil/amop/internal/analyzers/atomiccounter"
	"github.com/nlstencil/amop/internal/analyzers/budgetpair"
	"github.com/nlstencil/amop/internal/analyzers/framework"
	"github.com/nlstencil/amop/internal/analyzers/lockedsolve"
	"github.com/nlstencil/amop/internal/analyzers/nakedgo"
	"github.com/nlstencil/amop/internal/analyzers/scratchpair"
)

func main() {
	framework.Main(
		budgetpair.Analyzer,
		scratchpair.Analyzer,
		atomiccounter.Analyzer,
		nakedgo.Analyzer,
		lockedsolve.Analyzer,
	)
}
