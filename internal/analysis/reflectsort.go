package analysis

import (
	"go/ast"
)

// hotPackages are the packages on the query hot path where PR 8
// standardized sorting on the generic, reflection-free slices.SortFunc
// family. Matched by slash-aligned path suffix so the testdata fixture
// packages (whose import paths carry a testdata/src/ prefix) select the
// same way as the real tree.
var hotPackages = []string{
	"wwt",
	"internal/index",
	"internal/core",
	"internal/inference",
	"internal/consolidate",
}

// reflectSortBanned maps each banned sort-package function to its
// generic replacement.
var reflectSortBanned = map[string]string{
	"Slice":         "slices.SortFunc",
	"SliceStable":   "slices.SortStableFunc",
	"SliceIsSorted": "slices.IsSortedFunc",
}

// ReflectSort bans reflection-based sort.Slice/sort.SliceStable/
// sort.SliceIsSorted in the hot packages. The reflect-based swapper
// costs an interface allocation and reflect.Swapper call per sort;
// slices.SortFunc monomorphizes and was measured faster on every hot
// sort in the PR 8 sweep. Test files are exempt — benchmarks and
// reference implementations may sort however they like.
var ReflectSort = &Analyzer{
	Name: "reflectsort",
	Doc: "ban reflection-based sort.Slice in hot packages\n\n" +
		"sort.Slice/SliceStable/SliceIsSorted go through reflect.Swapper; the " +
		"hot packages (root, internal/index, internal/core, internal/inference, " +
		"internal/consolidate) " +
		"standardized on the generic slices.SortFunc family. Use " +
		"slices.SortFunc / slices.SortStableFunc / slices.IsSortedFunc.",
	Run: runReflectSort,
}

func runReflectSort(pass *Pass) error {
	hot := false
	for _, suffix := range hotPackages {
		if PathHasSuffix(pass.Pkg.Path(), suffix) {
			hot = true
			break
		}
	}
	if !hot {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sort" {
				return true
			}
			repl, banned := reflectSortBanned[fn.Name()]
			if !banned || pass.InTestFile(call.Pos()) {
				return true
			}
			pass.Reportf(call.Pos(),
				"sort.%s uses reflection on a hot path; use %s (PR 8 hot-sort invariant)",
				fn.Name(), repl)
			return true
		})
	}
	return nil
}
