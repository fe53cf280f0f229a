// Package analysis holds the repo's custom invariant checkers: four
// go/analysis-style analyzers that turn the architecture contracts the
// ROADMAP prose promises — and that code review has repeatedly had to
// re-litigate — into machine-checked invariants. The cmd/wwt-vet
// multichecker runs them standalone (wwt-vet ./...) or under the go
// vet driver (go vet -vettool=$(which wwt-vet) ./...), and the CI lint
// lane gates every other job on a clean run.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built on the standard library
// alone: package loading shells out to `go list -deps -export -json`
// and type-checks against compiled export data (internal/analysis/load),
// so the checkers work in the offline build environment where x/tools
// is unavailable. If that dependency ever lands, the analyzers port
// wholesale.
//
// Each analyzer enforces one documented invariant:
//
//   - mapfloatsum — bit-determinism. Float accumulation inside `range`
//     over a map depends on randomized iteration order; PR 3 fixed this
//     exact class in inSimCosine/unsegScores by summing in
//     first-occurrence order, and the equivalence tests
//     (TestEngineDeterministic, TestSearcherEquivalence) ride on no new
//     instance appearing. Escape hatch: //wwt:orderinvariant on a sum a
//     human has proven exact.
//
//   - reflectsort — the PR 8 hot-sort standard. sort.Slice/SliceStable/
//     SliceIsSorted go through reflect.Swapper; the hot packages (root,
//     internal/index, internal/core, internal/inference,
//     internal/consolidate) standardized on the monomorphized
//     slices.SortFunc family. Test files are exempt.
//
//   - mmapalias — the flat-index aliasing contract. unsafe.Slice/
//     unsafe.String views over a flat-opened index's sections die with
//     Close; storing one in a package-level variable or a field of a
//     type with no Close method lets the alias outlive its mapping.
//     Escape hatch: //wwt:mmap-owner on a type that holds views on a
//     Close-owning struct's behalf.
//
//   - releaseresult — the QueryScratch pooling contract. An
//     Engine.Answer/AnswerCtx Result that never reaches Release is not
//     a leak (the GC collects it) but silently defeats the arena pool,
//     the regression class the PR 3/PR 4 pooling work exists to
//     prevent. Lostcancel-style and deliberately forgiving: escaping
//     Results are someone else's responsibility. Escape hatch:
//     //wwt:retained on the call line.
//
// Golden-diagnostic coverage lives under testdata/src/<fixture> and
// runs through internal/analysis/analysistest, which loads the fixture
// packages with the same loader and matches reported diagnostics
// against `// want "regexp"` comments. Fixtures are real packages of
// this module, so they exercise the analyzers against the genuine wwt
// types they match on.
package analysis
