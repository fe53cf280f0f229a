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
// cache (ViewCache) — caches may only hold their own allocations; the
// reverse (read-only slices owned elsewhere referenced from scratch
// fields, e.g. the PMISource's H(Qℓ) doc sets) is fine because the
// scratch never writes through them.
//
// The edge pass first counts the shared cells of every cross-table column
// pair once, serially: it sorts one (cell ID, column) entry per body cell
// into cells, drops the repeats within a column, counts each column's
// distinct cells into colCells and increments counts, one int32 per
// column pair, laid out per table pair in pairs order (Σ n₁·n₂ entries,
// no same-table cells).
//
// Each build worker owns one workerScratch slot at a time. Stage 1 uses it
// for the per-table max-marginal solves; the edge pass, which never runs
// concurrently with stage 1, uses the same slot for the pair similarities:
// each table pair the worker computes reads its count grid, appends its
// surviving column pairs to the slot's sims arena and solves its matching
// in the slot's workspace, and the build records the pair's range in that
// arena. The counts and the survivors never leave the scratch.
type BuildScratch struct {
	hDocs  [][]int32 // per query column: the PMISource's H(Qℓ) doc sets (read-only)
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
	cells    []uint64    // cellID<<32 | global column, sorted, distinct
	colTab   []int32     // global column -> table
	colCells []int32     // global column -> its distinct cells
	counts   []int32     // shared cells per cross-table column pair
	ranges   []pairRange // per table pair: its survivors in a worker's sims
	denom    []float64
	rawEdges []rawEdge
	edges    []Edge
}

// workerScratch is one worker's build state: the header weights of its
// current table under the build's statistics and the query tokens' IDs in
// that table's interner (the per-build inputs of segScores), the
// assignment-solver workspace plus the output grid of the stage-1
// max-marginal solves of §4.2, the arena of the surviving column pairs of
// every table pair the worker computes in one edge pass (reset per pass;
// their similarities come from the pass's shared-cell counts), and the
// matching cells of the current pair. Everything else is fully
// overwritten per table or per pair.
type workerScratch struct {
	hdr   headerWeights
	qids  [][]uint32 // per query column: its tokens' IDs
	ws    graph.Workspace
	out   [][]float64
	outB  []float64
	sims  []colPairSim
	cells []graph.Cell
}
