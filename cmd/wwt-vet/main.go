// Command wwt-vet is the repo's invariant multichecker: it runs the
// internal/analysis suite (mapfloatsum, reflectsort, mmapalias,
// releaseresult) over module packages and fails when an
// architecture invariant from ROADMAP "Architecture invariants" is
// violated at the source level.
//
// Two modes share the analyzers:
//
//	wwt-vet ./...                     # standalone, test files included
//	go vet -vettool=$(which wwt-vet) ./...
//
// Standalone mode drives `go list -deps -export -json` itself (see
// internal/analysis/load). As a vettool it speaks the go command's
// unitchecker protocol: the -V=full identification handshake, then one
// invocation per package with a JSON .cfg describing files, import maps
// and export data, writing an (empty — the analyzers are fact-free)
// .vetx facts file per package.
//
// Individual analyzers can be disabled with -<name>=false. Exit status:
// 0 clean, 1 usage or internal failure, 2 diagnostics reported.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
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
	analysis.ReleaseResult,
}

func main() {
	enabled := make(map[string]*bool, len(suite))
	for _, a := range suite {
		summary, _, _ := strings.Cut(a.Doc, "\n")
		enabled[a.Name] = flag.Bool(a.Name, true, summary)
	}
	version := flag.Bool("V", false, "print version and exit (go vet handshake)")
	printflags := flag.Bool("flags", false, "print analyzer flags in JSON and exit (go vet handshake)")
	tests := flag.Bool("tests", true, "analyze test files too (standalone mode)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: wwt-vet [flags] [packages]\n       go vet -vettool=$(which wwt-vet) [packages]\n")
		flag.PrintDefaults()
	}
	// The go command invokes vet tools as `tool -V=full`; boolean flag
	// syntax accepts -V=full only through explicit handling.
	for i, arg := range os.Args {
		if arg == "-V=full" || arg == "--V=full" {
			os.Args[i] = "-V"
		}
	}
	flag.Parse()

	if *version {
		printVersion()
		return
	}
	if *printflags {
		printFlagDefs()
		return
	}

	active := make([]*analysis.Analyzer, 0, len(suite))
	for _, a := range suite {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0], active))
	}
	os.Exit(standalone(args, active, *tests))
}

// printVersion emits the identification line the go command's vettool
// handshake parses: "<name> version <version> ...". The content hash of
// the executable doubles as the build ID so vet results are re-cached
// when the tool changes.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("wwt-vet version devel buildID=%x\n", h.Sum(nil)[:16])
}

// printFlagDefs emits the tool's flags as the JSON array the go
// command's `vettool -flags` handshake expects, so it knows which vet
// flags it may forward.
func printFlagDefs() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var defs []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		if f.Name == "V" || f.Name == "flags" {
			return
		}
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		defs = append(defs, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(defs, "", "\t")
	if err != nil {
		fmt.Fprintln(os.Stderr, "wwt-vet:", err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// diag is one located finding.
type diag struct {
	pos      token.Position
	analyzer string
	message  string
}

func runSuite(pkg *load.Package, active []*analysis.Analyzer) ([]diag, error) {
	var out []diag
	for _, a := range active {
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

// standalone loads patterns (default ./...) and prints findings.
func standalone(patterns []string, active []*analysis.Analyzer, tests bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load(load.Options{Tests: tests}, patterns...)
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
		ds, err := runSuite(pkg, active)
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

// vetConfig is the package description the go command hands a vettool;
// field set and semantics follow x/tools' unitchecker.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes the single package described by cfgFile per the go
// vet protocol.
func unitcheck(cfgFile string, active []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wwt-vet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "wwt-vet: parsing %s: %v\n", cfgFile, err)
		return 1
	}
	// The go command caches the facts file per package; it must exist
	// even though the suite exports no facts.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
				fmt.Fprintln(os.Stderr, "wwt-vet:", err)
				os.Exit(1)
			}
		}
	}
	if cfg.VetxOnly {
		// Dependency pass: only facts are wanted, and we have none.
		writeVetx()
		return 0
	}

	files := make([]string, 0, len(cfg.GoFiles))
	for _, f := range cfg.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(cfg.Dir, f)
		}
		files = append(files, f)
	}
	pkg, err := load.Check(token.NewFileSet(), cfg.ImportPath, files, cfg.ImportMap, cfg.PackageFile)
	if err != nil || pkg.Types == nil || len(pkg.TypeErrors) > 0 {
		writeVetx()
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		if err == nil && len(pkg.TypeErrors) > 0 {
			err = pkg.TypeErrors[0]
		}
		fmt.Fprintf(os.Stderr, "wwt-vet: %s: typecheck: %v\n", cfg.ImportPath, err)
		return 1
	}

	ds, err := runSuite(pkg, active)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wwt-vet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	writeVetx()
	for _, d := range ds {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", d.pos, d.analyzer, d.message)
	}
	if len(ds) > 0 {
		return 2
	}
	return 0
}
