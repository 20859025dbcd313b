package framework

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// Main is the amop-vet entry point: a multichecker over the given
// analyzers. `amop-vet [packages]` loads the named packages (default ./...)
// through the go toolchain and reports findings, exiting 2 when any survive
// suppression.
func Main(analyzers ...*Analyzer) {
	fs := flag.NewFlagSet("amop-vet", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: amop-vet [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
	}
	fs.Parse(os.Args[1:])
	args := fs.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(standalone(args, analyzers))
}

// standalone loads patterns and runs every analyzer over each package.
func standalone(patterns []string, analyzers []*Analyzer) int {
	pkgs, err := Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amop-vet:", err)
		return 1
	}
	found := false
	for _, pkg := range pkgs {
		diags, err := RunAnalyzers(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "amop-vet: %s: %v\n", pkg.PkgPath, err)
			return 1
		}
		for _, d := range diags {
			found = true
			fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
	if found {
		return 2
	}
	return 0
}
