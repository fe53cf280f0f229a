package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker: a name (the diagnostic
// prefix and the wwt-vet sub-flag), a doc string, and a Run function
// applied to one type-checked package at a time. The shape deliberately
// mirrors golang.org/x/tools/go/analysis so the checkers can migrate to
// the upstream framework wholesale if the dependency ever lands; until
// then the stdlib-only Pass below is the entire contract.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be
	// a valid Go identifier.
	Name string

	// Doc is the one-paragraph user documentation: first line is a
	// summary, the rest explains the invariant and the escape hatch, if
	// any.
	Doc string

	// Run applies the analyzer to one package. Diagnostics are delivered
	// via pass.Report / pass.Reportf; the error return is for analysis
	// machinery failures only, not findings.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer. A Pass is
// single-use and not safe for concurrent mutation; the loader hands each
// analyzer its own.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The loader and test harness
	// install their own collectors here.
	Report func(Diagnostic)

	directives map[*ast.File]map[int][]string
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// HasDirective reports whether a `//wwt:name` comment suppressing or
// annotating the construct at pos is present — either trailing on the
// same source line or alone on the line immediately above. Directive
// comments may carry trailing prose after the name:
//
//	type view struct{ b []byte } //wwt:mmap-owner — the index's Close unmaps b
func (p *Pass) HasDirective(pos token.Pos, name string) bool {
	if p.directives == nil {
		p.directives = make(map[*ast.File]map[int][]string)
		for _, f := range p.Files {
			p.directives[f] = fileDirectives(p.Fset, f)
		}
	}
	file := p.fileFor(pos)
	if file == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, d := range p.directives[file][l] {
			if d == name {
				return true
			}
		}
	}
	return false
}

func (p *Pass) fileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// fileDirectives indexes every `//wwt:name` comment in f by line number.
func fileDirectives(fset *token.FileSet, f *ast.File) map[int][]string {
	m := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//wwt:")
			if !ok {
				continue
			}
			name := text
			if i := strings.IndexFunc(text, func(r rune) bool {
				return r == ' ' || r == '\t'
			}); i >= 0 {
				name = text[:i]
			}
			if name == "" {
				continue
			}
			line := fset.Position(c.Pos()).Line
			m[line] = append(m[line], name)
		}
	}
	return m
}

// InTestFile reports whether pos falls in a _test.go file. Several
// analyzers exempt test code (reflection sorts in benchmarks, deliberate
// retention in equivalence tests).
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// PathHasSuffix reports whether package path has the given slash-aligned
// suffix: "wwt/internal/index" matches "internal/index" but
// "wwt/internal/reindex" does not. Analyzers use it so both the real
// tree and the testdata fixture packages (whose import paths carry the
// testdata/src/ prefix) select the same way.
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// named returns the named type at the core of t, unwrapping pointers and
// aliases, or nil.
func named(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// calleeFunc returns the function or method object called by call, or
// nil for calls through function-typed variables, conversions, and
// builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	case *ast.IndexListExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// rootIdent walks to the base identifier of an lvalue-ish expression:
// x, x.f, x[i], (*x).f all root at x. Returns nil when there is no
// simple base (calls, literals).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}
