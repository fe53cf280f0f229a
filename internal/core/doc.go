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
// # Parameters and constants
//
// Params holds what training and the experiments vary: the six weights
// W1..W5, We of Eq. 3/4 and the model variants (UsePMI, Cooccur,
// Unsegmented, Edges). Every other value the paper fixes is a constant:
// the outSim reliabilities of T, C, Hc, Hr and B, 1.0, 0.9, 0.5, 1.0 and
// 0.8 (§3.2.1); a body token is frequent (part B) in at least 0.3 of a
// column's rows and at least twice; PMI² samples at most 50 rows per
// column (§3.2.3); the nsim smoothing λ is 0.3, the neighbor cut 0.1 and
// the confidence gate 0.6 (§3.3); the max-matching weighs content 0.7 and
// headers 0.3 (§3.3, "Max-matching Edges"); and MinMatch is 1 for a
// single-column query and 2 otherwise (Eq. 8). A view therefore depends
// on its table's text alone.
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
// per engine and serves both the edge pass and consolidation. A view's
// header tokens are interned too, so a build matches its query against
// header cells by integer: it resolves the query tokens' IDs once
// (re-resolving, after each batch of fetched views, a token no view had
// interned yet) and marks per query column and header cell a hit mask of
// the query positions the cell holds, which drives SegSim, Cover and
// outSim's header parts. Views are immutable once built and carry no
// corpus statistics: each build weighs the header cells of its tables
// under its own CorpusStats, in its scratch, the first time a feature
// reads a cell, so a cached view serves every generation of a live
// engine. The cache retains every table it has analyzed for its lifetime.
// Every IDF a build reads — its query's and the tokens of the header
// cells it weighs, the tables Extend adds included — goes through a memo
// in its scratch that BuildTables empties and binds to the build's
// CorpusStats, so each distinct token reaches the statistics (one lookup
// per live segment, on the index) once per build. The memo is per-build
// arena state, not a cross-query cache: no IDF outlives the build whose
// pinned generation it was read under.
//
// The content-overlap edges are computed per build, in the build's own
// arena: no pair similarity outlives the query that computed it. One pass
// groups the body cells of every view by cell ID through an open-addressed
// table in the arena, with no sort, drops the repeats within a column, and
// counts each column's distinct cells and the shared cells of each
// cross-table column pair into buffers of Σ n columns and Σ n₁·n₂ counts,
// one row per column over the columns of the tables after its own. One sweep per table pair then reads its
// Jaccards and set sizes from there instead of merging the two columns'
// cell sets, appends its survivors straight to the raw edges, and marks
// its max-matching: survivors that share no column are all matched
// without a solve when graph.DisjointMatched, the kernel's own test,
// holds. PMI doc sets and cached view cells are read-only to the
// builder.
//
// There are two ways in. Build allocates a private arena and returns a
// model safe to retain. A build can also run in two halves through a
// caller-owned BuildScratch, as the engine's query pipeline runs it:
// BuildTables computes the per-table state (features, Rel, node
// potentials, stage-1 Dist/Conf), and Model.Extend adds more tables
// through the same scratch and builds the edges over all of them —
// identical to one BuildTables over the whole list followed by an Extend
// that adds none, which is what Build runs. Such a Model aliases the
// arena, and the caller must not reuse the scratch while it is live. Scratch buffers must never be inserted into the cross-query
// caches; referencing cache-owned slices from scratch fields is fine
// because build code never writes through them.
package core
