// Package core implements the paper's primary contribution: the column
// mapping task expressed as a graphical model (§3). It provides the
// two-part segmented similarity SegSim (Eq. 1) and its coverage variant
// Cover (§3.2.2), the corpus-wide PMI² feature (§3.2.3), the table
// relevance feature R(Q,t) (Eq. 2), node potentials (Eq. 3), the
// robustified content-overlap edge potentials (Eq. 4) with normalized
// similarity, confidence gating and max-matching edge selection, and the
// four table-level hard constraints (Eq. 5–8). The inference package
// consumes the assembled Model.
//
// # Ownership and concurrency contracts
//
// A build runs entirely on its caller's goroutine and starts none of its
// own: concurrency lives where queries are independent, so one query is
// one goroutine. Builder.Build is safe to call concurrently when the
// Builder's caches are shared: ViewCache and the PMISource are both
// concurrency-safe. Every float is summed in one fixed order, so output
// is deterministic and bit-identical across runs.
//
// ViewCache owns the engine-lifetime Interner; every cached TableView
// interns its cell strings and tokens there, and interned IDs are
// comparable only within one interner — never compare views from
// different interners. The interner also records every string's token-ID
// set when it assigns the ID, so a body cell's analysis — its whole-cell
// ID in the view's row-major cells and its token set — is computed once
// per engine and serves both the edge pass and consolidation. Views are immutable once built and carry no corpus
// statistics: each build weighs the header tokens of its tables under its
// own CorpusStats, in its scratch, so a cached view serves every
// generation of a live engine. The cache retains every table it has
// analyzed for its lifetime.
//
// The content-overlap edges are computed per build, in the build's own
// arena: no pair similarity outlives the query that computed it. One pass
// sorts a (cell ID, column) entry per body cell of every view, drops the
// repeats within a column, and counts each column's distinct cells and
// the shared cells of each cross-table column pair into buffers of
// Σ n columns and Σ n₁·n₂ counts; each table pair's Jaccard grid reads
// its overlaps and set sizes from there instead of merging the two
// columns' cell sets. PMI doc sets and cached view cells are read-only to
// the builder.
//
// Build allocates a private arena; BuildWith carves every model grid from
// a caller-owned BuildScratch, and the resulting Model aliases that
// arena. The caller must not reuse the scratch while the Model is live.
// A build can also run in two halves: BuildTables computes the per-table
// state (features, Rel, node potentials, stage-1 Dist/Conf), and
// Model.Extend adds more tables through the same scratch and builds the
// edges over all of them — identical to one BuildWith over the whole
// list. Scratch buffers must never be inserted into the cross-query
// caches; referencing cache-owned slices from scratch fields is fine
// because build code never writes through them.
package core
