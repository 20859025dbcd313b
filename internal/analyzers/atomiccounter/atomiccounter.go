// Package atomiccounter defines an analyzer guarding process-wide shared
// integers: the spawn budget's token count, the telemetry gate, and any
// counter kept outside the obs registry.
//
// The registry's own counters (obs.Counter: spectrum-cache hits, FFT byte
// traffic, repricing-memo and serving counters) keep their value unexported
// behind Add and Load, so they are atomic by construction. Any other
// package-level value written from every solver goroutine at once stays
// trustworthy only if every access goes through sync/atomic. The analyzer
// enforces that mechanically for two shapes:
//
//   - atomic-typed counters (package-level sync/atomic.Int64 & friends):
//     every use must be a direct method call (Load, Add, Store, Swap,
//     CompareAndSwap) or an address-of. Copying the value (assignment,
//     value argument, comparison, composite literal) snapshots the counter
//     non-atomically and detaches the copy from the shared variable — on
//     32-bit platforms the copy itself tears.
//
//   - legacy plain-integer counters: a package-level integer variable
//     whose address is passed to a sync/atomic function anywhere in the
//     package is a counter by declaration of intent; every other access
//     must then be atomic too. One plain `v++` next to atomic.AddInt64
//     callers is a lost-update bug and a data race the detector only
//     catches when two writers actually collide under -race.
package atomiccounter

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/nlstencil/amop/internal/analyzers/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "atomiccounter",
	Doc: "check that process-wide counters are only touched via sync/atomic\n\n" +
		"Process-wide atomics are written from every solver goroutine;\n" +
		"a plain load/store or a value copy breaks them.",
	Run: run,
}

// atomicTypes is the set of sync/atomic wrapper types treated as counters
// when declared at package level.
var atomicTypes = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Value": true, "Pointer": true,
}

func run(pass *framework.Pass) error {
	info := pass.TypesInfo

	// Pass 1: find the counter variables and, for legacy counters, the
	// uses that bless them (an &v argument to a sync/atomic call).
	atomicVars := make(map[*types.Var]bool)  // sync/atomic-typed package vars
	legacyVars := make(map[*types.Var]bool)  // plain ints used with atomic.AddXxx(&v)
	blessedUses := make(map[*ast.Ident]bool) // idents appearing inside a sync/atomic call
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		v, ok := scope.Lookup(name).(*types.Var)
		if ok && isAtomicType(v.Type()) {
			atomicVars[v] = true
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSyncAtomicCall(info, call) {
				return true
			}
			for _, arg := range call.Args {
				unary, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || unary.Op != token.AND {
					continue
				}
				id, ok := ast.Unparen(unary.X).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := info.Uses[id].(*types.Var)
				if !ok || v.Parent() != scope || !isPlainInteger(v.Type()) {
					continue
				}
				legacyVars[v] = true
				blessedUses[id] = true
			}
			return true
		})
	}

	// Pass 2: audit every use of a counter variable.
	for _, file := range pass.Files {
		checkFile(pass, file, atomicVars, legacyVars, blessedUses)
	}
	return nil
}

func checkFile(pass *framework.Pass, file *ast.File, atomicVars, legacyVars map[*types.Var]bool, blessedUses map[*ast.Ident]bool) {
	info := pass.TypesInfo
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)

		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		switch {
		case atomicVars[v]:
			if !atomicUseOK(parents, id) {
				pass.Reportf(id.Pos(), "atomic counter %s must be used only through its sync/atomic methods (or by address); copying the value reads it non-atomically and detaches the copy", id.Name)
			}
		case legacyVars[v]:
			if !blessedUses[id] {
				pass.Reportf(id.Pos(), "counter %s is accessed with sync/atomic elsewhere in this package; this plain access is a data race — use the atomic API here too", id.Name)
			}
		}
		return true
	})
}

// atomicUseOK reports whether the use of an atomic-typed counter at id is
// sound: the receiver of a method call, or an address-of (aliasing keeps
// accesses atomic; only value copies break).
func atomicUseOK(parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	p := parents[id]
	for {
		if par, ok := p.(*ast.ParenExpr); ok {
			p = parents[par]
			continue
		}
		break
	}
	switch p := p.(type) {
	case *ast.SelectorExpr:
		if p.X != id {
			return true // id is the field name of some other selection
		}
		// v.Method(...): the selector must be called.
		call, ok := parents[p].(*ast.CallExpr)
		return ok && call.Fun == p
	case *ast.UnaryExpr:
		return p.Op == token.AND
	}
	return false
}

func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && atomicTypes[obj.Name()]
}

func isPlainInteger(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

func isSyncAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	fn := framework.Callee(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}
