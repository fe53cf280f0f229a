package core

import "wwt/internal/graph"

// BuildScratch is the reusable arena of one model build: every flat
// backing array Build needs — the node/feature/distribution grids, the
// assignment solver state, and the edge-construction buffers — lives
// here, so a warm scratch builds a model with near-zero allocation.
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
// scratch never writes through them. The IDF memo is arena state like
// the rest: BuildTables empties it and binds it to the build's
// CorpusStats, Extend reads through it under the same pinned statistics,
// and no IDF it holds outlives the build.
//
// The edge pass first counts the shared cells of every cross-table column
// pair once: it sorts one (cell ID, column) entry per body cell into
// cells, drops the repeats within a column, counts each column's distinct
// cells into colCells and increments counts, one int32 per column pair:
// column g's row over the columns of the later tables starts at
// rowOff[g], indexed by global column from colEnd[g] on (Σ n₁·n₂ entries,
// no same-table cells). Then each table pair, in (t1, t2) order, appends
// its surviving column pairs straight to rawEdges and marks its matching,
// solving in ws through match when its survivors share a column. The
// counts never leave the scratch.
type BuildScratch struct {
	hDocs  [][]int32 // per query column: the PMISource's H(Qℓ) doc sets (read-only)
	colOff []int     // table -> global offset of its first column
	in     *Interner // symbol table of the model's views when no ViewCache owns one

	// pmiToks holds one cell's tokens for PMISource.ContentDocs: a cell
	// contributes at most its first eight.
	pmiToks [8]string

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

	idf idfMemo // every IDF the build reads

	// Per-table state, overwritten for each table: its header weights
	// under the build's statistics and the query tokens' IDs in its
	// interner (the per-build inputs of segScores), and the output grid
	// of its stage-1 max-marginal solve (§4.2).
	hdr  headerWeights
	qids [][]uint32 // per query column: its tokens' IDs
	out  [][]float64
	outB []float64
	// The assignment-solver workspace of the stage-1 solves and the edge
	// pass's matchings, which never run at once.
	ws graph.Workspace

	// Edge construction.
	cells    []uint64     // cellID<<32 | global column, sorted, distinct
	colCells []int32      // global column -> its distinct cells
	rowOff   []int        // global column g -> its row: counts[rowOff[g]+g2], g2 >= colEnd[g]
	colEnd   []int        // global column -> end of its table's columns
	counts   []int32      // shared cells per cross-table column pair
	match    []graph.Cell // the current pair's matching cells
	denom    []float64
	rawEdges []rawEdge
	edges    []Edge
}
