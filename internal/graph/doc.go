// Package graph implements the combinatorial machinery behind WWT's
// inference algorithms: a min-cost max-flow solver (successive shortest
// paths with Bellman-Ford, §4.2.2), the generalized maximum-weight
// bipartite matching reduction of §4.2.1 with residual-graph max-marginal
// queries (§4.2.3, Fig. 3), a Dinic max-flow/min-cut solver for expansion
// moves, and the constrained minimum s-t cut of Fig. 4.
//
// The column-mapping hot path does not call the reduction directly. Its
// three assignment problems are tiny, and LabelMAP (§4.1's table-local
// MAP), LabelMaxMarginals (§4.2.3's stage-1 max-marginals) and MatchCells
// (§3.3's one-one column matching of a table pair) solve them exactly by
// dynamic programming over a bitmask of used labels or columns. They fall
// back to the reduction when a problem is too wide for the mask, has a
// non-finite weight, or has optimal solutions within the reduction's
// float tolerance of each other. Their results are therefore exactly the
// reduction's, and SolveAssignment is their test oracle
// (FuzzSmallAssignment).
//
// # Ownership and concurrency contracts
//
// Solvers here are single-threaded by design: thousands of small solves
// run per query, so the package optimizes for allocation-free reuse, not
// internal parallelism. Callers parallelize across independent solves,
// each with its own state.
//
// Workspace is the reusable assignment-solve state (MCMF network + SPFA
// scratch + the kernel's DP tables + matching/max-marginal buffers) behind
// SolveAssignmentWS and the three kernel entry points. A workspace serves
// one solve at a time, and results alias the workspace — they are valid
// only until its next solve. SolveAssignment remains the fresh-workspace,
// safe-to-retain form.
//
// MCMF adjacency lists keep insertion order (forward-star head+tail
// pointers): shortest-path searches break cost ties by the first edge
// relaxed, so iteration order is part of the solver's contract — callers
// observe which equally-cheap path wins.
package graph
