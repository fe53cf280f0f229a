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
// Builder.Build is safe to call concurrently when the Builder's caches
// are shared: ViewCache and the PMISource are both concurrency-safe, and
// per-table feature extraction fans out over an internal worker pool with
// per-index writes, so output is deterministic and bit-identical across
// runs.
//
// ViewCache owns the per-engine Interner; every cached TableView interns
// its cell and header strings there, and interned IDs are comparable only
// within one interner — never compare views from different interners.
// Views are immutable once built, and the cache retains every table it
// has analyzed for its lifetime.
//
// The content-overlap edges are computed per build, in the build's own
// arena: no pair similarity outlives the query that computed it. PMI doc
// sets and cached view cell sets are read-only to the builder.
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
