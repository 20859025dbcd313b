// Package framework is a minimal, dependency-free stand-in for
// golang.org/x/tools/go/analysis: just enough of the Analyzer/Pass contract
// to write project-specific vet checks against the standard library's
// go/ast and go/types, load the module's packages offline from `go list
// -export` data, and run them over those packages (`amop-vet ./...`).
//
// The x/tools module is deliberately not imported: this repository builds
// hermetically from the standard library alone, and the five analyzers in
// the neighboring packages need no facts, no SSA and no cross-package
// dependency graph — per-package syntax plus type information covers every
// invariant they enforce. If the repo ever grows an x/tools dependency the
// analyzers port mechanically: the Analyzer, Pass and Diagnostic shapes
// here mirror go/analysis field-for-field.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check, mirroring
// golang.org/x/tools/go/analysis.Analyzer (minus facts and requirements,
// which no amop analyzer needs).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//amop:ignore <name>` suppression directives. It must be a valid Go
	// identifier.
	Name string

	// Doc is the analyzer's documentation: first line summary, then detail.
	Doc string

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package, mirroring
// go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report collects a diagnostic; the runner applies suppression
	// directives and sorting afterwards.
	report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Report records a diagnostic at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	p.report(Diagnostic{Pos: pos, Message: msg, Analyzer: p.Analyzer.Name})
}

// Reportf records a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// newInfo returns a types.Info with every map analyzers read populated.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// RunAnalyzers applies every analyzer to pkg and returns the surviving
// diagnostics: suppression directives (see directives.go) are already
// applied, and the result is sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	supp := collectSuppressions(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		pass.report = func(d Diagnostic) {
			if supp.suppressed(pkg.Fset, d) {
				return
			}
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	// Insertion sort by (file, line, col, analyzer): diagnostic counts per
	// package are tiny.
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0 && diagLess(fset, diags[j], diags[j-1]); j-- {
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
}

func diagLess(fset *token.FileSet, a, b Diagnostic) bool {
	pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	if pa.Line != pb.Line {
		return pa.Line < pb.Line
	}
	if pa.Column != pb.Column {
		return pa.Column < pb.Column
	}
	return a.Analyzer < b.Analyzer
}
