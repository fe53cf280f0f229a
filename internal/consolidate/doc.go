// Package consolidate implements the final stage of Fig. 2: merging the
// relevant columns and rows of mapped web tables into a single q-column
// answer table, resolving duplicate rows across sources (after [9], soft
// key matching on the first query column), and ranking rows so that highly
// supported, high-confidence rows surface first.
//
// Consolidation reads the model's table views, not raw text: every body
// cell was analyzed once, when its view was built, into an interned
// whole-cell ID whose token set the interner holds. Exact key matching
// compares those IDs, and fuzzy key matching and row compatibility take
// the Jaccard of those token sets, so no cell is normalized per query.
//
// A row's support counts the distinct table IDs among the tables merged
// into it, in table order; its Sources list them in that order. Tables
// are read one at a time and only the table being read appends to a
// row's sources, so the row already counts that table exactly when its
// last source is the table's ID. The one exception is a table whose ID
// an earlier table also carried (one source extracted twice, as the
// oracle's worlds draw): the scratch records the IDs merged so far, and
// for such a table the whole source list is searched. While rows merge,
// their sources are chains through one scratch list; once merging ends,
// every row's Sources is cut, at its exact size, from one backing array
// per Answer.
//
// # Ownership and concurrency contracts
//
// Consolidate reads its inputs (views, labeling, relevance scores)
// without mutating them, and the returned Answer owns all of its storage —
// rows, cells and the sources' backing are freshly allocated, so an
// Answer outlives any scratch or model it was derived from. A
// caller-owned Scratch (key indexes, the row being assembled, the answer
// rows' cell IDs and source chains) is reused across calls: one
// consolidation owns the arena at a time, and only the arena is reused —
// the Answer it returns still owns its storage. The token sets the scratch refers to belong to the interner and
// are never written.
package consolidate
