// Package load type-checks module packages for the invariant analyzers
// using only the standard library and the go command. It is the offline
// stand-in for golang.org/x/tools/go/packages: `go list -deps -export
// -json` supplies file lists, import maps and compiled export data for
// every dependency, and go/importer's gc importer consumes that export
// data, so whole-tree analysis never re-typechecks the transitive
// closure from source.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// ID is go list's ImportPath, unique per package variant — a test
	// variant reads "wwt/internal/index [wwt/internal/index.test]".
	ID string
	// PkgPath is the import path proper, variant decoration stripped.
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// TypeErrors holds type-checking problems. The package is still
	// returned — analyzers run best-effort over what checked.
	TypeErrors []error
}

// listPkg is the subset of go list -json output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	DepOnly    bool
	ForTest    string
	Standard   bool
}

// Load lists patterns with the go command, run in dir ("" for the
// current directory, which must lie in the module), and type-checks every
// matched package of the surrounding module together with its test
// variants: the in-package variant, which compiles the _test.go files
// alongside the package and replaces the plain package in the result, and
// the external _test package. Each file is so analyzed exactly once.
// Synthesized test-main packages are skipped.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := []string{
		"list", "-e", "-deps", "-export", "-test",
		"-json=ImportPath,Dir,Export,GoFiles,ImportMap,DepOnly,ForTest,Standard",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exportFile := make(map[string]string)
	var targets []*listPkg
	replaced := make(map[string]bool) // plain packages shadowed by a test variant
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Export != "" {
			exportFile[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Standard || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		pc := p
		if base := variantBase(p.ImportPath); base != "" && base == p.ForTest {
			replaced[base] = true
		}
		targets = append(targets, &pc)
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, t := range targets {
		if replaced[t.ImportPath] {
			continue
		}
		pkg, err := check(fset, t, exportFile)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", t.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// variantBase extracts the plain import path from a test-variant ID:
// "p [p.test]" yields "p"; plain IDs yield "".
func variantBase(id string) string {
	if i := strings.Index(id, " ["); i >= 0 {
		return id[:i]
	}
	return ""
}

// check type-checks one go list target against the export-data map.
func check(fset *token.FileSet, t *listPkg, exportFile map[string]string) (*Package, error) {
	pkg := &Package{ID: t.ImportPath, PkgPath: t.ImportPath, Fset: fset}
	if base := variantBase(t.ImportPath); base != "" {
		pkg.PkgPath = base
	}
	for _, f := range t.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(t.Dir, f)
		}
		file, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, file)
	}

	// A fresh importer per package: the gc importer caches by source
	// spelling, and ImportMap is per-package (test variants remap their
	// own module imports to the variant builds).
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if m, ok := t.ImportMap[path]; ok {
			path = m
		}
		ef, ok := exportFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(ef)
	})
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tpkg, err := conf.Check(pkg.PkgPath, fset, pkg.Files, pkg.Info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	if tpkg == nil {
		return nil, errors.Join(pkg.TypeErrors...)
	}
	pkg.Types = tpkg
	return pkg, nil
}
