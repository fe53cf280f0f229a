// Package consolidate implements the final stage of Fig. 2: merging the
// relevant columns and rows of mapped web tables into a single q-column
// answer table, resolving duplicate rows across sources (after [9], soft
// key matching on the first query column), and ranking rows so that highly
// supported, high-confidence rows surface first.
//
// # Ownership and concurrency contracts
//
// Consolidate reads its inputs (tables, labeling, relevance scores)
// without mutating them, and the returned Answer owns all of its storage —
// rows, cells and source lists are freshly allocated, so an Answer
// outlives any scratch or model it was derived from. ConsolidateScratch
// reuses a caller-owned Scratch (key indexes, the row being assembled, and
// the per-call memo that normalizes each distinct cell once) across calls:
// one consolidation owns the arena at a time, and only the arena is reused
// — the Answer it returns still owns its storage.
package consolidate
