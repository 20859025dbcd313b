// Package pairing implements the acquire/release path analysis shared by
// the budgetpair (par.TryAcquire/par.Release) and scratchpair
// (scratch.Floats/PutFloats) analyzers.
//
// The model: an acquire call produces a resource bound to a local variable;
// the resource must reach a matching release on every path out of the
// variable's scope, either directly, via defer, or inside a function
// literal launched from the scope (a deferred cleanup or a goroutine the
// resource is handed to). Ownership may instead *escape* — the value is
// returned, stored into a longer-lived structure, transferred to another
// variable, or (for budget tokens) passed to another function — in which
// case the pairing obligation moves with it and the analyzer stays silent:
// these checks are precise about what they flag, never about what they
// excuse.
//
// The path analysis is structural rather than CFG-based: it walks the
// scope's statement list in order, tracking whether a release is
// guaranteed yet, recursing into if/for/switch/select bodies. That is
// exact for the shapes this codebase uses (straight-line pairing, deferred
// release, conditional release under a zero-token guard, loop-carried
// buffers) and conservative — silent, not noisy — beyond them.
package pairing

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/nlstencil/amop/internal/analyzers/framework"
)

// Spec parameterizes the analysis for one acquire/release family.
type Spec struct {
	// IsAcquire reports whether call acquires a resource, returning a label
	// for diagnostics (e.g. "par.TryAcquire", "scratch.Floats").
	IsAcquire func(info *types.Info, call *ast.CallExpr) (string, bool)

	// IsRelease reports whether call releases resources of this family,
	// returning a label (e.g. "par.Release").
	IsRelease func(info *types.Info, call *ast.CallExpr) (string, bool)

	// ReleaseLabel names the release operation in diagnostics when no
	// concrete call is available ("par.Release", "scratch.Put*").
	ReleaseLabel string

	// CallArgEscapes, when set, treats passing the resource variable to any
	// non-release function as an ownership transfer (true for budget token
	// counts, which helpers release on the caller's behalf). When clear,
	// passing the variable leaves the caller the owner (true for scratch
	// buffers: callees operate on them, callers put them back).
	CallArgEscapes bool

	// ZeroExempt, when set, recognizes conditions of the form v == 0 /
	// v <= 0 (and negations) as proving the resource is empty, so paths
	// where the guard holds owe no release. par.TryAcquire returns zero
	// tokens when the budget is exhausted; releasing zero is a no-op, and
	// the canonical caller pattern returns early on it.
	ZeroExempt bool
}

// Check runs the analysis over every function in the pass.
func Check(pass *framework.Pass, spec *Spec) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBody(pass, spec, fn, fn.Body)
				}
			case *ast.FuncLit:
				checkBody(pass, spec, fn, fn.Body)
			}
			return true
		})
	}
}

// checkBody analyzes the acquire sites directly inside body (acquires
// inside nested function literals are analyzed when the walk reaches the
// literal itself).
func checkBody(pass *framework.Pass, spec *Spec, fn ast.Node, body *ast.BlockStmt) {
	c := &checker{pass: pass, spec: spec, parent: make(map[ast.Node]ast.Node)}
	buildParents(c.parent, fn)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if label, ok := spec.IsAcquire(c.info(), call); ok {
			c.checkAcquire(call, label)
		}
		return true
	})
}

type checker struct {
	pass   *framework.Pass
	spec   *Spec
	parent map[ast.Node]ast.Node
}

func (c *checker) info() *types.Info { return c.pass.TypesInfo }

func buildParents(parents map[ast.Node]ast.Node, root ast.Node) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
}

// checkAcquire classifies one acquire site and dispatches the appropriate
// precision tier.
func (c *checker) checkAcquire(call *ast.CallExpr, label string) {
	parent := c.parent[call]
	// Unwrap parens around the call.
	for {
		if p, ok := parent.(*ast.ParenExpr); ok {
			parent = c.parent[p]
			continue
		}
		break
	}
	switch p := parent.(type) {
	case *ast.ExprStmt:
		// The result is discarded: the resource can never be released.
		c.pass.Reportf(call.Pos(), "result of %s is discarded: the acquired resource can never reach %s", label, c.spec.ReleaseLabel)
	case *ast.AssignStmt:
		c.checkAssign(p, call, label)
	default:
		// The call feeds directly into a larger expression (a release
		// argument, a return value, a struct literal): ownership moves
		// with the value and the obligation moves with it.
	}
}

// checkAssign handles `v := acquire()` and `v = acquire()` forms.
func (c *checker) checkAssign(assign *ast.AssignStmt, call *ast.CallExpr, label string) {
	// Locate which LHS the call's value lands in; only the single-value
	// forms are analyzed.
	if len(assign.Rhs) != 1 || len(assign.Lhs) != 1 || ast.Unparen(assign.Rhs[0]) != call {
		return
	}
	id, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident)
	if !ok || id.Name == "_" {
		// Stored straight into a field or element: ownership escapes the
		// local frame.
		return
	}
	v := c.varOf(id)
	if v == nil {
		return
	}
	if c.isNamedResult(assign, v) {
		// Acquired straight into a named result: the value escapes to the
		// caller on every return, bare or not.
		return
	}

	// The variable's scope block bounds the analysis region: the statement
	// list the assignment belongs to, from the statement after it onward.
	region, fullMust := c.regionAfter(assign)
	if region == nil {
		return
	}
	ev := c.scanEvidence(region, v, assign)
	if ev.escapes {
		return
	}
	if !ev.released {
		c.pass.Reportf(call.Pos(), "%s result %q never reaches %s on any path (resource leak)", label, id.Name, c.spec.ReleaseLabel)
		return
	}
	if !fullMust {
		// `v = acquire()` into a variable declared elsewhere: presence of a
		// release (checked above) is the contract this tier can verify.
		return
	}
	w := &mustWalker{c: c, v: v, label: label, name: id.Name}
	state := w.walkStmts(region, false)
	if !state.released && !state.terminated {
		c.pass.Reportf(call.Pos(), "%s result %q is not released by %s on the fall-through path out of its scope", label, id.Name, c.spec.ReleaseLabel)
	}
}

// isNamedResult reports whether v is a named result parameter of the
// function enclosing assign.
func (c *checker) isNamedResult(assign ast.Node, v *types.Var) bool {
	for n := c.parent[assign]; n != nil; n = c.parent[n] {
		var ftype *ast.FuncType
		switch fn := n.(type) {
		case *ast.FuncLit:
			ftype = fn.Type
		case *ast.FuncDecl:
			ftype = fn.Type
		default:
			continue
		}
		if ftype.Results == nil {
			return false
		}
		for _, field := range ftype.Results.List {
			for _, name := range field.Names {
				if c.info().Defs[name] == v {
					return true
				}
			}
		}
		return false
	}
	return false
}

func (c *checker) varOf(id *ast.Ident) *types.Var {
	if v, ok := c.info().Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := c.info().Uses[id].(*types.Var)
	return v
}

// regionAfter returns the statements that execute after assign and can
// discharge (or transfer) the obligation. fullMust reports whether the
// region covers the whole rest of the variable's scope, enabling the
// all-paths walk: that holds for `:=` bindings, whose scope is the
// innermost block. For `=` into a variable declared further out, the
// region instead climbs to the rest of every enclosing block up to the
// function body, and only the presence of a release is verified.
func (c *checker) regionAfter(assign *ast.AssignStmt) (region []ast.Stmt, fullMust bool) {
	if assign.Tok == token.DEFINE {
		switch p := c.parent[assign].(type) {
		case *ast.BlockStmt:
			for i, s := range p.List {
				if s == assign {
					return p.List[i+1:], true
				}
			}
		case *ast.IfStmt:
			if p.Init == assign {
				return []ast.Stmt{p}, true
			}
		}
		// Other := positions (for-init, case bodies) are out of the
		// structural model; stay silent rather than guess.
		return nil, false
	}
	var cur ast.Node = assign
	for n := c.parent[assign]; n != nil; n = c.parent[n] {
		switch p := n.(type) {
		case *ast.BlockStmt:
			region = append(region, after(p.List, cur)...)
		case *ast.CaseClause:
			region = append(region, after(p.Body, cur)...)
		case *ast.CommClause:
			region = append(region, after(p.Body, cur)...)
		case *ast.FuncDecl, *ast.FuncLit:
			return region, false
		}
		cur = n
	}
	return region, false
}

// after returns the statements of list following the one that is (or
// contains) cur.
func after(list []ast.Stmt, cur ast.Node) []ast.Stmt {
	for i, s := range list {
		if ast.Node(s) == cur {
			return list[i+1:]
		}
	}
	return nil
}

// evidence summarizes what the scope does with the resource variable.
type evidence struct {
	released bool
	escapes  bool
}

// scanEvidence walks the region (including nested function literals)
// classifying every use of v.
func (c *checker) scanEvidence(region []ast.Stmt, v *types.Var, binding *ast.AssignStmt) evidence {
	var ev evidence
	for _, stmt := range region {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if ev.escapes {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				if _, ok := c.spec.IsRelease(c.info(), n); ok {
					if framework.Mentions(c.info(), n, v) {
						ev.released = true
						// Do not descend: v inside a release call is the
						// release itself, not an escape.
						return false
					}
					return true
				}
				if c.spec.CallArgEscapes && c.argMentions(n, v) {
					ev.escapes = true
					return false
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if framework.Mentions(c.info(), r, v) {
						ev.escapes = true
						return false
					}
				}
			case *ast.AssignStmt:
				if n == binding {
					return true
				}
				// v (or a slice of v) on the RHS: the value itself is
				// transferred to another location — an alias, a field, a
				// slot — and ownership goes with it. Arithmetic or element
				// reads over v (w = tokens + 1, apex = seg[0]) consume
				// data, not ownership, and do not escape. v reassigned on
				// the LHS: tracking of the original value ends; the
				// reassignment shapes in this codebase release or hand off
				// the old value first, and modeling them would trade
				// silence for noise.
				for _, r := range n.Rhs {
					if aliasRoot(c.info(), r) == v {
						ev.escapes = true
						return false
					}
				}
				for _, l := range n.Lhs {
					if id, ok := ast.Unparen(l).(*ast.Ident); ok && c.info().Uses[id] == v {
						ev.escapes = true
						return false
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND && framework.Mentions(c.info(), n.X, v) {
					ev.escapes = true
					return false
				}
			case *ast.CompositeLit:
				if framework.Mentions(c.info(), n, v) {
					ev.escapes = true
					return false
				}
			case *ast.SendStmt:
				if framework.Mentions(c.info(), n.Value, v) {
					ev.escapes = true
					return false
				}
			case *ast.IncDecStmt:
				// Token-count arithmetic mutates the obligation in ways the
				// structural walk cannot follow.
				if framework.Mentions(c.info(), n.X, v) {
					ev.escapes = true
					return false
				}
			}
			return true
		})
	}
	return ev
}

// aliasRoot resolves e to the variable whose storage it aliases: the
// variable itself, or a reslicing of it. Element reads, arithmetic and
// calls alias nothing.
func aliasRoot(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// argMentions reports whether v appears among call's arguments.
func (c *checker) argMentions(call *ast.CallExpr, v *types.Var) bool {
	for _, a := range call.Args {
		if framework.Mentions(c.info(), a, v) {
			return true
		}
	}
	return false
}

// mustWalker is the all-paths release analysis for one tracked variable.
type mustWalker struct {
	c     *checker
	v     *types.Var
	label string
	name  string
}

// pathState flows through the structural walk.
type pathState struct {
	// released: a release (direct, deferred, or handed to a launched
	// function literal) is guaranteed at this point.
	released bool
	// exempt: on this path the resource is proven empty (zero tokens), so
	// no release is owed.
	exempt bool
	// terminated: this path ends in a return (already checked) or panic.
	terminated bool
}

// walkStmts threads state through a statement list.
func (w *mustWalker) walkStmts(stmts []ast.Stmt, released bool) pathState {
	st := pathState{released: released}
	for _, s := range stmts {
		st = w.walkStmt(s, st)
		if st.terminated {
			break
		}
	}
	return st
}

func (w *mustWalker) walkStmt(s ast.Stmt, st pathState) pathState {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if w.stmtReleases(s.X) {
			st.released = true
		}
	case *ast.DeferStmt:
		if w.callReleases(s.Call) {
			st.released = true
		}
	case *ast.GoStmt:
		if w.callReleases(s.Call) {
			// The release rides in the goroutine: ownership handed off.
			st.released = true
		}
	case *ast.ReturnStmt:
		if !st.released && !st.exempt {
			w.c.pass.Reportf(s.Pos(), "return leaks %s result %q: no %s on this path", w.label, w.name, w.c.spec.ReleaseLabel)
		}
		st.terminated = true
	case *ast.BlockStmt:
		inner := w.walkStmts(s.List, st.released)
		st.released = inner.released
		st.terminated = inner.terminated
	case *ast.LabeledStmt:
		st = w.walkStmt(s.Stmt, st)
	case *ast.IfStmt:
		st = w.walkIf(s, st)
	case *ast.ForStmt:
		if s.Body != nil {
			w.walkStmts(s.Body.List, st.released)
		}
		// The body may run zero times: its releases are not guaranteed
		// after the loop. An infinite `for {}` with no break would
		// terminate the path, but none of the tracked scopes use it.
	case *ast.RangeStmt:
		if s.Body != nil {
			w.walkStmts(s.Body.List, st.released)
		}
	case *ast.SwitchStmt:
		st.released = w.walkCases(caseBodies(s.Body), s.Body != nil && hasDefault(s.Body), st.released)
	case *ast.TypeSwitchStmt:
		st.released = w.walkCases(caseBodies(s.Body), s.Body != nil && hasDefault(s.Body), st.released)
	case *ast.SelectStmt:
		if s.Body != nil {
			var bodies [][]ast.Stmt
			for _, cl := range s.Body.List {
				bodies = append(bodies, cl.(*ast.CommClause).Body)
			}
			// select blocks until some case runs, so all-cases-release
			// suffices.
			st.released = w.walkCases(bodies, true, st.released)
		}
	}
	return st
}

// walkIf handles conditionals, including the zero-token guards.
func (w *mustWalker) walkIf(s *ast.IfStmt, st pathState) pathState {
	zeroThen, zeroElse := w.zeroGuard(s.Cond)

	thenSt := pathState{released: st.released, exempt: zeroThen}
	if !thenSt.exempt {
		inner := w.walkStmts(s.Body.List, thenSt.released)
		thenSt.released = inner.released
		thenSt.terminated = inner.terminated
	} else {
		// Returns under the guard owe nothing; but if the branch falls
		// through, the exemption ends with it (v may be nonzero on the
		// merged path below the if only when the guard failed — in which
		// case this branch never ran — so fall-through keeps prior state).
		thenSt.terminated = terminates(s.Body.List)
	}

	elseSt := pathState{released: st.released, exempt: zeroElse}
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		if !elseSt.exempt {
			inner := w.walkStmts(e.List, elseSt.released)
			elseSt.released = inner.released
			elseSt.terminated = inner.terminated
		} else {
			elseSt.terminated = terminates(e.List)
		}
	case *ast.IfStmt:
		if !elseSt.exempt {
			elseSt = w.walkIf(e, pathState{released: st.released})
		}
	case nil:
		// No else. `if v > 0 { release }` discharges the obligation: when
		// the guard fails the resource is empty and owes nothing. Every
		// other shape leaves the fall-through state as it was before the
		// if — either the branch did not run, or it ran and terminated
		// (returns inside were already checked).
		if zeroElse && (thenSt.released || thenSt.terminated) {
			st.released = true
		}
		return st
	}

	switch {
	case thenSt.terminated && elseSt.terminated:
		st.terminated = true
	case thenSt.terminated:
		st.released = elseSt.released || elseSt.exempt
	case elseSt.terminated:
		st.released = thenSt.released || thenSt.exempt
	default:
		st.released = (thenSt.released || thenSt.exempt) && (elseSt.released || elseSt.exempt)
	}
	return st
}

// walkCases threads a branch set; the merged path is released only when
// every branch releases and the set covers all inputs.
func (w *mustWalker) walkCases(bodies [][]ast.Stmt, exhaustive bool, released bool) bool {
	if len(bodies) == 0 {
		return released
	}
	all := true
	for _, b := range bodies {
		inner := w.walkStmts(b, released)
		if !inner.released && !inner.terminated {
			all = false
		}
	}
	return released || (all && exhaustive)
}

func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	if body == nil {
		return nil
	}
	var out [][]ast.Stmt
	for _, cl := range body.List {
		if c, ok := cl.(*ast.CaseClause); ok {
			out = append(out, c.Body)
		}
	}
	return out
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if c, ok := cl.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}

// terminates reports whether a statement list always exits the function
// (structurally: its last statement is a return or an unconditional panic).
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(last.List)
	}
	return false
}

// stmtReleases reports whether expr is a release of the tracked variable,
// directly or via an immediately-invoked function literal.
func (w *mustWalker) stmtReleases(expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	return w.callReleases(call)
}

// callReleases reports whether call releases v: a direct release call, or
// a call whose function literal (deferred cleanup, goroutine body) contains
// one.
func (w *mustWalker) callReleases(call *ast.CallExpr) bool {
	info := w.c.info()
	if _, ok := w.c.spec.IsRelease(info, call); ok {
		return framework.Mentions(info, call, w.v)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if _, ok := w.c.spec.IsRelease(info, c); ok && framework.Mentions(info, c, w.v) {
					found = true
				}
			}
			return !found
		})
		return found
	}
	return false
}

// zeroGuard classifies cond: zeroThen means the then-branch runs only when
// the resource count is zero (nothing to release there); zeroElse means the
// else/fall-through side is the zero side.
func (w *mustWalker) zeroGuard(cond ast.Expr) (zeroThen, zeroElse bool) {
	if !w.c.spec.ZeroExempt {
		return false, false
	}
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false, false
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	op := bin.Op
	// Normalize to "v OP literal".
	if isZeroLit(x) || isOneLit(x) {
		x, y = y, x
		switch op {
		case token.LSS:
			op = token.GTR
		case token.GTR:
			op = token.LSS
		case token.LEQ:
			op = token.GEQ
		case token.GEQ:
			op = token.LEQ
		}
	}
	if id, ok := x.(*ast.Ident); !ok || w.c.info().Uses[id] != w.v {
		return false, false
	}
	switch {
	case isZeroLit(y):
		switch op {
		case token.EQL, token.LEQ: // v == 0, v <= 0
			return true, false
		case token.NEQ, token.GTR: // v != 0, v > 0
			return false, true
		}
	case isOneLit(y):
		switch op {
		case token.LSS: // v < 1
			return true, false
		case token.GEQ: // v >= 1
			return false, true
		}
	}
	return false, false
}

func isZeroLit(e ast.Expr) bool { return isIntLit(e, "0") }
func isOneLit(e ast.Expr) bool  { return isIntLit(e, "1") }

func isIntLit(e ast.Expr, text string) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == text
}
