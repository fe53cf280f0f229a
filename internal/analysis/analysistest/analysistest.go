// Package analysistest runs invariant analyzers over fixture packages
// and checks their diagnostics against `// want "regexp"` expectations
// embedded in the fixture sources — the offline, stdlib-only stand-in
// for golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under internal/analysis/testdata/src/<name>. Each is a
// real package of the wwt module (go list resolves explicit testdata
// paths even though ./... wildcards prune them), so fixtures may import
// real packages such as wwt or wwt/internal/index and exercise analyzers
// against the genuine types they match on.
//
// Expectation syntax, on the line the diagnostic is reported at:
//
//	sum += v // want `depends on map iteration order`
//	x := f() // want "first regexp" "second regexp"
//
// Each quoted or backquoted token is a regular expression that must
// match the message of exactly one diagnostic reported on that line;
// diagnostics with no matching want, and wants with no matching
// diagnostic, both fail the test.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"wwt/internal/analysis"
	"wwt/internal/analysis/load"
)

// TestData returns the caller's testdata/src root (resolved relative to
// this source file, so it works regardless of the test's working
// directory).
func TestData() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		panic("analysistest: cannot locate caller")
	}
	// .../internal/analysis/analysistest/analysistest.go -> .../internal/analysis/testdata/src
	return filepath.Join(filepath.Dir(filepath.Dir(file)), "testdata", "src")
}

// Run loads each fixture package (a directory name under srcRoot),
// applies a, and matches diagnostics against the fixture's want
// comments.
func Run(t *testing.T, srcRoot string, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	for _, fx := range fixtures {
		dir := filepath.Join(srcRoot, fx)
		pkgs, err := load.Load(dir, ".")
		if err != nil {
			t.Errorf("%s: loading fixture: %v", fx, err)
			continue
		}
		if len(pkgs) == 0 {
			t.Errorf("%s: fixture matched no packages", fx)
			continue
		}
		for _, pkg := range pkgs {
			for _, terr := range pkg.TypeErrors {
				t.Errorf("%s: fixture does not type-check: %v", fx, terr)
			}
			runOne(t, fx, a, pkg)
		}
	}
}

// want is one expectation: a compiled regexp at a file line.
type want struct {
	file string // base name
	line int
	re   *regexp.Regexp
	text string
	used bool
}

func runOne(t *testing.T, fx string, a *analysis.Analyzer, pkg *load.Package) {
	t.Helper()
	wants, err := collectWants(pkg)
	if err != nil {
		t.Errorf("%s: %v", fx, err)
		return
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Errorf("%s: analyzer %s: %v", fx, a.Name, err)
		return
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		file, line := filepath.Base(pos.Filename), pos.Line
		matched := false
		for _, w := range wants {
			if !w.used && w.file == file && w.line == line && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: %s:%d: unexpected diagnostic: %s", fx, file, line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s: %s:%d: no diagnostic matching %q", fx, w.file, w.line, w.text)
		}
	}
}

// collectWants scans every fixture file's comments for want expectations.
func collectWants(pkg *load.Package) ([]*want, error) {
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				res, err := parseWantPatterns(rest)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want comment: %v", filepath.Base(pos.Filename), pos.Line, err)
				}
				for _, pat := range res {
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: want %q: %v", filepath.Base(pos.Filename), pos.Line, pat, err)
					}
					wants = append(wants, &want{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						re:   re,
						text: pat,
					})
				}
			}
		}
	}
	return wants, nil
}

// parseWantPatterns splits `"re1" "re2"` / “ `re` “ into its quoted
// tokens using Go string syntax.
func parseWantPatterns(s string) ([]string, error) {
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte
		switch s[0] {
		case '"', '`':
			quote = s[0]
		default:
			return nil, fmt.Errorf("expected quoted regexp, found %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("unterminated %c-quoted regexp", quote)
		}
		tok := s[:end+2]
		pat, err := strconv.Unquote(tok)
		if err != nil {
			return nil, fmt.Errorf("unquoting %s: %v", tok, err)
		}
		pats = append(pats, pat)
		s = strings.TrimSpace(s[end+2:])
	}
	if len(pats) == 0 {
		return nil, fmt.Errorf("empty want comment")
	}
	return pats, nil
}
