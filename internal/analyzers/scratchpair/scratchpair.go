// Package scratchpair defines an analyzer verifying that buffers taken
// from internal/scratch's size-classed freelists are returned or
// deliberately handed off.
//
// The invariant: scratch.Floats, and a scratch.Workspace's Floats, transfer
// buffer ownership to the caller; the owner either returns the buffer with
// scratch.PutFloats or a workspace's Put (either pool takes either
// buffer: the class comes from the capacity) or passes
// ownership on (returns it, stores it, hands it to a goroutine). A locally-owned buffer that
// reaches a return statement — or falls out of scope — without a Put is a
// pool leak: correctness survives (the GC collects it) but the freelist
// never recycles it, and the zero-allocation steady state the pools exist
// for erodes one forgotten Put at a time, exactly the regression a test
// suite cannot see.
//
// Passing a buffer to another function is NOT treated as an ownership
// transfer: throughout this codebase callees operate on borrowed buffers
// (FFT transforms, row evolutions) and the caller still puts them back.
// Ownership moves only when the value itself moves — into a return, an
// assignment, a composite literal, a channel send.
package scratchpair

import (
	"go/ast"
	"go/types"

	"github.com/nlstencil/amop/internal/analyzers/framework"
	"github.com/nlstencil/amop/internal/analyzers/pairing"
)

const scratchPath = framework.ModulePath + "/internal/scratch"

var Analyzer = &framework.Analyzer{
	Name: "scratchpair",
	Doc: "check that scratch.Floats buffers reach scratch.Put* or escape\n\n" +
		"A locally-owned buffer dropped without a Put silently erodes the\n" +
		"scratch pools' zero-allocation steady state.",
	Run: run,
}

var spec = &pairing.Spec{
	IsAcquire: func(info *types.Info, call *ast.CallExpr) (string, bool) {
		return callTo(info, call, "Floats", "Workspace.Floats")
	},
	IsRelease: func(info *types.Info, call *ast.CallExpr) (string, bool) {
		return callTo(info, call, "PutFloats", "Workspace.Put")
	},
	ReleaseLabel:   "scratch.Put*",
	CallArgEscapes: false,
	ZeroExempt:     false,
}

// callTo reports which of the scratch functions or methods names call
// invokes, as its diagnostic label.
func callTo(info *types.Info, call *ast.CallExpr, names ...string) (string, bool) {
	for _, name := range names {
		if framework.IsCallTo(info, call, scratchPath, name) {
			if name == "Workspace.Floats" || name == "Workspace.Put" {
				return name, true
			}
			return "scratch." + name, true
		}
	}
	return "", false
}

func run(pass *framework.Pass) error {
	if pass.Pkg.Path() == scratchPath {
		// The pools' own implementation allocates and recycles raw slices;
		// the pairing protocol starts at its API boundary.
		return nil
	}
	pairing.Check(pass, spec)
	return nil
}
