package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Offline package loading.
//
// The standalone runner resolves packages the same way `go vet` does under
// the hood: one `go list -deps -json -export` invocation yields, for every
// package in the build, the compiled export data the go toolchain already
// has in its build cache. Target packages (the ones matching the patterns)
// are then re-parsed from source and type-checked against that export data
// with the standard library's gc importer. No network, no source
// re-typecheck of dependencies, and exact agreement with the compiler on
// types.

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load lists patterns with the go tool and returns the matched packages
// parsed and type-checked, sorted by import path. Test files are not
// loaded: the analyzers enforce production invariants, and tests exercise
// goroutines and fixtures in ways the checks deliberately do not model.
func Load(patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-e", "-json", "-export", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Env = os.Environ()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	var targets []*listPackage
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			target := p
			targets = append(targets, &target)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("%s: %s", t.ImportPath, t.Error.Err)
		}
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported by amop-vet", t.ImportPath)
		}
		pkg, err := checkPackage(fset, t.ImportPath, t.Dir, absFiles(t.Dir, t.GoFiles), imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func absFiles(dir string, names []string) []string {
	files := make([]string, len(names))
	for i, n := range names {
		files[i] = filepath.Join(dir, n)
	}
	return files
}

// checkPackage parses files and type-checks them as package pkgPath using
// imp for imports, at the toolchain's default language version.
func checkPackage(fset *token.FileSet, pkgPath, dir string, files []string, imp types.Importer) (*Package, error) {
	var astFiles []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		astFiles = append(astFiles, f)
	}
	info := newInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	tpkg, err := conf.Check(pkgPath, fset, astFiles, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", pkgPath, err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Dir:       dir,
		Fset:      fset,
		Files:     astFiles,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// newExportImporter returns a types.Importer that resolves import paths
// through compiled export data files (gc format).
func newExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}
