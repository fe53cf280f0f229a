// Package inference solves the column-mapping MAP problem (Eq. 9), which
// is NP-hard, with the paper's algorithms (§4):
//
//   - Independent: exact per-table inference via generalized maximum-weight
//     bipartite matching (§4.1); no cross-table edges.
//   - TableCentric: the paper's best collective method (§4.2) — table-local
//     max-marginals, softmax distributions, one round of neighbor messages,
//     re-solve with boosted node potentials.
//   - AlphaExpansion: edge-centric graph-cut inference (§4.3) with the
//     mutex constraint enforced through the constrained minimum s-t cut of
//     Fig. 4 and must/min-match repaired in post-processing.
//   - BP: loopy max-product belief propagation with mutex and all-Irr
//     reduced to (dissociative) pairwise potentials.
//   - TRWS: sequential tree-reweighted message passing on the same model.
//
// The engine serves Independent (its stage-1 mapping) and TableCentric
// (the final solve). α-expansion, BP and TRWS are the §5.3 comparisons of
// Table 2, which the evaluation harness runs through Solve. TableCentric
// is a heuristic: its max(msg, θ) override re-weights node potentials, so
// it does not maximise Model.Score, and its labeling can score below
// Independent's on the same model.
//
// # Ownership and concurrency contracts
//
// Solve reads the Model but never mutates it, so any number of goroutines
// may Solve the same model concurrently — the evaluation harness runs all
// five algorithms on one build. Scratch.Independent and
// Scratch.TableCentric run the engine's two solves out of a caller-owned
// arena (per-table §4.1 solver state, the table-centric message and node
// grids): one solve owns the arena at a time, and the returned Labeling
// owns its storage, surviving any later reuse of the arena. α-expansion,
// BP and TRWS take no arena; each call allocates its pairwise MRF and
// message buffers and reuses them across its own iterations and moves.
// All algorithms are deterministic: identical models yield bit-identical
// labelings.
package inference
