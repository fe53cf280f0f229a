// Package index is the repo's Lucene substitute (§2.1): every extracted web
// table is indexed as a document with three analyzed text fields — header,
// context and content — carrying relative boosts 2, 1.5 and 1. It supports
// the union-of-keywords probes used by WWT's two-stage retrieval, exposes
// corpus statistics (IDF) to the feature code, and serves the sorted
// document sets that the PMI² feature intersects.
//
// # Ownership and concurrency contracts
//
// Index is the mutable, map-based build-time structure. Searcher is the
// query-time form, and the only one: an ordered list of K immutable
// segments × N term-hash shards over a global doc space, each shard a
// frozen CSR layout with precomputed (1+ln tf)·boost/√len weights, probed
// through a pooled dense accumulator with generation-tagged reset, bounded
// top-k heap selection and the layered pruning described below.
//
// The package has three entry points: NewSearcher freezes an Index in
// memory (K=1, N=1), WriteDir writes tables as an index directory, and
// OpenSnapshot opens a directory's committed manifest (K=1 for a plain
// frozen directory) — one type, one SearchStats, one each of IDF and
// DocSet. One freeze (freezeSegment) builds every segment: it buckets the
// sorted terms by shard and builds each shard's arrays in
// exactly the form its postings file holds, so NewSearcher's segment and
// a flat-opened one differ only in where the arrays live, and a frozen
// searcher shares nothing with its Index. A Searcher is immutable and
// safe for concurrent calls.
//
// The map-based scorer over Index (Index.Search and friends) lives in
// oracle_test.go: it ships in no binary and exists as the reference the
// equivalence tests and the fuzzer compare the Searcher against.
//
// The PMI² feature reads doc sets straight from the Searcher:
// HeaderContextDocs and ContentDocs are DocSet over the header+context and
// content fields, so a *Searcher is a core.PMISource. Nothing caches them;
// every call returns a freshly allocated slice.
//
// # The canonical term order and bit-identity
//
// Per-document float64 scores accumulate in one canonical term order:
// document frequency ascending, token ascending on ties. Identical
// operation order makes the sums — and therefore hits, scores and
// tie-breaks — bit-identical between the reference scorer and every
// construction of the Searcher (TestSearcherEquivalence,
// TestShardedSearcherEquivalence, TestMultiSearcherEquivalence: one grid,
// K ∈ {1, 2, 3, 8} × N ∈ {1, 2, 3, 8}, in memory, mmap-opened and read
// whole; FuzzSearchPruningEquivalence walks the same space).
// Rarest-first is not cosmetic: the selective terms establish the top-k
// score floor before the long common lists are walked, which is what arms
// the block pruning below. Keep the order in sync with the oracle.
//
// # The probe layer: two levels of exact pruning
//
// On top of the term-level max-score skip, probes prune work at two
// granularities (gather.go); each only ever discards work that provably
// cannot change the top k, so results stay bit-identical:
//
//  1. Block closure. Posting lists carry fixed-width block summaries (max
//     posting weight + first doc ID per block). A block whose best
//     reachable score sits strictly below the current top-k threshold
//     stops admitting new candidate documents.
//  2. Whole-block skips. A closed block whose doc-ID range contains no
//     still-live candidate is skipped without touching its posting pages;
//     only the dense summaries (~1/blockSize of the postings) are read.
//     Live candidates are tracked in a lazily built per-probe bitmap, so
//     probes that never close a block pay nothing for it.
//
// A probe runs on its caller's goroutine from resolution to merge: it
// starts no goroutine, prefaults no page and scans no posting twice.
//
// Inner scoring loops are lane-grouped (laneWidth-wide groups with bounds
// checks hoisted); every document sees the identical float64 operation
// sequence as a scalar loop, so the lanes change speed, never sums.
// SearchStats exposes per-probe counters (ProbeStats) for the
// wwt_probe_* metrics.
//
// # Persistence: the flat sharded index and the table store
//
// An index directory holds one form of each, and WriteDir is the one
// writer of both — wwt-index, every ingest and every merge go through it:
//
//   - docs.wwt + postings-NNN.wwt — the flat sharded index: a frozen
//     segment's arrays written out verbatim, opened by OpenSnapshot.
//     The files are memory-mapped (page-cache backed) and the
//     searcher's arrays alias the mapping directly; opening reads only
//     the headers, the doc-ID and term offsets and the postings' doc
//     numbers, builds no maps and copies no bytes on the fast path.
//
//   - store.gob — the directory's tables in doc order, prefixed with an
//     8-byte magic ("WWTSTG01") and a uint32 little-endian format
//     version (2) so stale or mixed-up files fail fast with a precise
//     error; the layout is below. ReadTables is its one reader. Because the
//     order is the doc table's, a hit's global doc number (Hit.Doc)
//     indexes the concatenation of a snapshot's segment stores in
//     manifest order; the live engine resolves hits that way and refuses
//     a segment whose store disagrees with its doc table.
//
// Every file WriteDir writes is synced before it is closed, and then the
// directory and the parent entry naming it are synced, so a manifest
// committed afterwards never names a segment a crash could lose.
//
// Older layouts are retired, not read: a version-1 flat file (WWTFLT01),
// a gob index snapshot (index.gob, WWTIXG01) where a flat file belongs,
// a postings file without the best-weight section and a version-1 table
// store all fail at open with an error naming wwt-index, which rebuilds
// the directory.
//
// # Table store layout (format version 2)
//
// After its 12-byte header, store.gob is one encoding/gob value: a
// string table holding each distinct text of the segment once (entry 0
// is the empty string), then the tables in doc order. A table keeps its
// ID inline, since IDs are unique, and names every other text — URL,
// page title, each cell, each context snippet — by a uint32 index into
// the string table. Its rows are a list of cellCount<<1 | styled entries,
// the first TitleRows of them title rows and the next HeaderRows header
// rows; its cell references run row-major; a styled row (one with any
// bold, italic, underline or <th> cell) contributes one style byte per
// cell (bits 0–3 in that order, the rest zero), an unstyled row none.
// Context snippets are a reference list plus a parallel float64 score
// list. On the extracted corpora most texts repeat — at scale 32, 2.1% of
// cell texts and 0.8% of snippet texts are distinct — so the store holds
// them once per segment instead of once per cell.
//
// ReadTables checks every count and reference before it builds anything
// (an unresolved reference, a style-byte count other than the styled
// rows' cell count, unknown style bits, a snippet without a score, an
// empty or repeated ID all fail with an error naming the table), then
// rebuilds the tables so that equal texts share one string and each
// table's cells sit in one array its rows are capped cuts of. Version 1,
// a gob of the wtable values themselves, is retired: no reader is kept.
//
// # Flat file layout (format version 2)
//
// Every .wwt file is little-endian and starts with a 48-byte header:
//
//	offset  size  field
//	     0     8  magic "WWTFLT02"
//	     8     4  format version (2)
//	    12     4  kind: 1 = docs file, 2 = postings shard
//	    16     4  shardIndex (0 for docs)
//	    20     4  shardCount
//	    24     8  numDocs
//	    32     8  numTerms (this shard's; 0 for docs)
//	    40     4  sectionCount
//	    44     4  blockSize (postings shards, > 0; 0 for docs)
//
// A section table of sectionCount 24-byte entries {id u32, reserved u32,
// offset u64, len u64} follows, then the section payloads. Every payload
// starts at an 8-byte-aligned offset, so int64/float64 sections can be
// aliased in place. Strings (doc IDs, terms) are stored as an int64
// offsets array plus one concatenated byte blob; terms are sorted, and
// lookup is a binary search over the blob — building a map at open time
// would make open O(terms).
//
// Postings shards carry four block-summary sections per field f (IDs
// secFieldBlkBase + 4f + k), derived deterministically from the postings
// with the header's blockSize:
//
//	k  section      type     contents
//	0  blkOff[f]    int32    per term: first block index; numTerms+1
//	                         entries (CSR over blocks)
//	1  blkMax[f]    float32  per block: max posting weight
//	2  blkDoc[f]    int32    per block: first doc ID
//	3  fieldMaxW[f] float32  per term: max posting weight in the field
//
// Blocks are aligned to each (term, field) list's start — block b of term
// t covers postings [t.off + b·blockSize, t.off + (b+1)·blockSize) of the
// list — so the summaries are exactly reproducible from the postings.
// Every build writes blockSize 128; the reader accepts any positive width
// the header declares. Because a probe indexes its accumulator by doc
// number and skips blocks by their first-doc summaries, the reader also
// checks, at open, that every posting names a doc below numDocs and that
// every blkDoc entry equals its block's first posting.
//
// Postings shards must also carry section secBestWeight (id 24, float64,
// numTerms entries): each term's best per-document cross-field weight sum
// — the idf-free factor of a term's score bound. Probes use it to restate
// the bound under the corpus-global idf (bound = global idf ·
// bestWeight). Section IDs 5 and 6 — a shard-local idf and max score that
// earlier builds wrote and no probe read — are retired: a reader ignores
// them when present, and no build writes or reuses them.
//
// On little-endian hosts with an aligned mapping the typed views are
// zero-copy (unsafe.Slice over the mapped bytes); on big-endian hosts or
// unaligned fallback reads each section is decoded (binary.Decode) into a
// fresh slice. When mmap is unavailable (or refused by the kernel) the
// same files are read whole through io.ReaderAt into aligned buffers —
// same format, portable path, still one validation pass.
//
// Because the flat searcher's strings and doc sets alias the mapping,
// results must not outlive Searcher.Close.
//
// # Segments × shards: the one probe
//
// Within a segment, terms are partitioned across postings shards by
// FNV-1a hash (shardOfToken) while documents stay segment-wide, so a
// term's whole posting list — and its df and best-weight bound — lives in
// exactly one shard: sharding changes where a list lives, never what it
// holds. Across segments, documents are partitioned (global doc number =
// segment base + local number, bases being the running sum of segment
// lengths) and a term may occur in several.
//
// SearchStats is the same four steps at every K and N. (1) Deduplicate the
// query tokens. (2) Resolve every token in its home shard of every
// segment, sum its df across segments — exact, since a document lives in
// one segment — and stamp the corpus-global df, idf (smoothedIDF, the same
// float64 operation a rebuilt index runs) and rescaled
// max-score bound on each termRef; sort the refs segment-major into the
// canonical order. (3) For each segment in order: gather (gather.go)
// with the admission floor carried over from the segments already scored,
// so later segments open with blocks already closed; collect the
// segment's top k. (4) The global top k is a subset of the per-segment
// top k's, so merging the candidates by the shared hit order (score
// descending, ID ascending) reproduces exactly what one index rebuilt over
// the union would return. DocSet intersects per segment and concatenates the
// rebased results; IDF sums df over segments.
//
// # Segments and the manifest: the live-index lifecycle
//
// A live index directory is a flat index plus an ordered list of frozen
// segments, committed by a manifest (segment.go):
//
//	idx/
//	  MANIFEST.json           the committed generation (may be absent)
//	  docs.wwt                base segment ("."): flat files + store
//	  postings-NNN.wwt
//	  store.gob
//	  segments/seg-0000000000/   one ingest batch, frozen: a one-shard
//	    docs.wwt                 flat index + its own store.gob
//	    postings-000.wwt
//	    store.gob
//
// MANIFEST.json is UTF-8 JSON: {"version": 1, "generation": G,
// "segments": [...]}. Segment entries are paths relative to the index
// root; "." names the base index. Entry order is canonical — global doc
// numbers are assigned segment by segment in list order, so the manifest
// fixes the doc-ID space, not just the file set. Absolute paths, empty
// entries and ".." are rejected at read time.
//
// The manifest is the single commit point, written atomically: the JSON
// goes to a CreateTemp file in the index directory, is fsynced, closed,
// and renamed over MANIFEST.json, and the index directory is fsynced
// after the rename. A reader therefore sees either the old generation or
// the new one, never a torn file, and a crash after WriteManifest returns
// keeps the new one — every segment it names was synced by WriteDir
// before the commit. Every other file in the
// lifecycle is immutable once written: segment writes and merges (both
// WriteDir) and the base index are create-only, so the
// crash-recovery rule is simply "trust the manifest": a segment
// directory not (or not yet) listed is an orphan from a crash between
// flush and commit — ignored by OpenSnapshot, its sequence number
// never reused (the live engine scans segments/ before minting names).
// A directory with no manifest at all is a plain frozen index; its
// implicit manifest is generation 0 with segments ["."].
//
// Ingest appends: flush the batch as segments/seg-<next>, commit the
// manifest with the entry appended and generation+1. Merge compacts:
// write the union of a full tier as a new segment, commit with the
// picked entries replaced (at the first picked position) by the merged
// one, then unlink the inputs — readers still mapping them keep the
// inodes alive; the unlink runs only after the commit's directory sync.
// PlanMerge picks the lowest size tier (ratio-4 buckets over doc counts)
// holding at least 4 segments; the base "." is never an input.
//
// OpenSnapshot opens the listed segments as one Searcher (above), so a
// partitioned corpus scores bit-identically to the same corpus rebuilt as
// one index.
package index
