package core

import "wwt/internal/graph"

// BuildScratch is the reusable arena of one model build: every flat
// backing array Build needs — the node/feature/distribution grids, the
// per-worker assignment solver state, and the edge-construction buffers —
// lives here, so a warm scratch builds a model with near-zero allocation.
// The zero value is ready to use.
//
// Ownership contract: a Model built through BuildWith or BuildTables
// aliases the scratch (its Node/Feats/Dist/Conf/Rel/Views/Edges storage IS
// the scratch), so the scratch may only be reused once that model is dead.
// Extend is no exception: it grows that same model in place, so it takes
// the scratch the model was built through. The engine's query pipeline
// relies on this: the arena is handed to the Result and recycled only on
// Release. Scratch buffers must never be handed to a cross-query
// cache (ViewCache/PairSimCache/DocSetCache) — caches may only hold their
// own allocations; the reverse (read-only cache-owned slices referenced
// from scratch fields, e.g. pair-sim slots) is fine because the scratch
// never writes through them.
//
// Each build worker owns one workerScratch slot at a time. Stage 1 uses it
// for the per-table max-marginal solves; the edge pass, which never runs
// concurrently with stage 1, uses the same slot for pair-similarity cache
// misses: the surviving column pairs are staged in the slot and solved in
// its workspace, and only an exact-size copy of the survivors leaves it —
// that copy, not the slot, is what PairSimCache retains.
type BuildScratch struct {
	hDocs  [][]int32 // per query column: cache-owned H(Qℓ) doc sets (read-only)
	colOff []int     // table -> global offset of its first column
	in     *Interner // symbol table of the model's views when no ViewCache owns one

	views []*TableView

	// Flat grids over (global column, label): one backing array plus the
	// row and per-table headers that Model exposes as [][][] slices.
	feats    []Features
	featRows [][]Features
	featsTab [][][]Features

	node     []float64
	nodeRows [][]float64
	nodeTab  [][][]float64

	dist     []float64
	distRows [][]float64
	distTab  [][][]float64

	conf    []float64
	confTab [][]float64

	rel []float64

	// Per-worker solver scratch (workers run disjoint tables or pairs).
	workers []workerScratch

	// Edge construction.
	pairs    []tablePair
	slots    [][]colPairSim // cache- or compute-owned per-pair lists (read-only)
	denom    []float64
	rawEdges []rawEdge
	edges    []Edge
}

// workerScratch is one worker's assignment-solver state: the workspace
// plus the output grid of the stage-1 max-marginal solves of §4.2, and the
// staging buffers (survivors, matching cells) of a pair-similarity miss.
// Everything is fully overwritten per table or per pair.
type workerScratch struct {
	ws    graph.Workspace
	out   [][]float64
	outB  []float64
	sims  []colPairSim
	cells []graph.Cell
}
