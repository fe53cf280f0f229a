// Command wwt-vet is the repo's invariant multichecker: it runs the
// internal/analysis suite (mapfloatsum, reflectsort, mmapalias) over
// module packages, test files included, and fails when an architecture
// invariant from ROADMAP "Architecture invariants" is violated at the
// source level.
//
//	wwt-vet ./...
//
// It takes package patterns (default ./...) and no flags, and drives
// `go list -deps -export -json` itself (see internal/analysis/load).
// Exit status: 0 clean, 1 usage or internal failure, 2 diagnostics
// reported.
package main

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"wwt/internal/analysis"
	"wwt/internal/analysis/load"
)

var suite = []*analysis.Analyzer{
	analysis.MapFloatSum,
	analysis.ReflectSort,
	analysis.MmapAlias,
}

func main() {
	patterns := os.Args[1:]
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fmt.Fprintln(os.Stderr, "usage: wwt-vet [packages]")
			os.Exit(1)
		}
	}
	os.Exit(run(patterns))
}

// diag is one located finding.
type diag struct {
	pos      token.Position
	analyzer string
	message  string
}

func runSuite(pkg *load.Package) ([]diag, error) {
	var out []diag
	for _, a := range suite {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			out = append(out, diag{pos: pkg.Fset.Position(d.Pos), analyzer: name, message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	return out, nil
}

// run loads patterns (default ./...) and prints findings.
func run(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wwt-vet:", err)
		return 1
	}
	var all []diag
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "wwt-vet: %s: typecheck: %v\n", pkg.ID, terr)
		}
		if pkg.Types == nil {
			continue
		}
		ds, err := runSuite(pkg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wwt-vet: %s: %v\n", pkg.ID, err)
			return 1
		}
		all = append(all, ds...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		return a.message < b.message
	})
	for _, d := range all {
		fmt.Printf("%s: [%s] %s\n", relPos(d.pos), d.analyzer, d.message)
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "wwt-vet: %d finding(s)\n", len(all))
		return 2
	}
	return 0
}

func relPos(p token.Position) token.Position {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, p.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			p.Filename = rel
		}
	}
	return p
}
