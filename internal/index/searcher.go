package index

import (
	"math"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Searcher is the query-time form of the index, and the only one: an
// ordered list of K immutable segments, each a doc table plus N term-hash
// shards of CSR postings, presented as one index over a global doc space
// (segment i's documents occupy the contiguous range starting at its doc
// base, in list order). Freezing an Index in memory (NewSearcher) is
// K=1, N=1; an index directory's manifest snapshot (OpenSnapshot) is the
// general case, K=1 for a directory without ingested segments.
//
// Scoring is bit-identical — IDs, float64 scores, order, tie-breaks — at
// every K and N to one index built over the union of the documents:
//
//   - Term-hash sharding keeps a term's whole posting list in one shard, so
//     sharding changes where a list lives, never what it holds.
//   - The one corpus-wide quantity in a score is idf. Every probe sums a
//     term's df across segments (documents live in exactly one segment, so
//     the sum is exact) and restates idf from the global doc count with
//     smoothedIDF — the identical float64 operation a rebuilt index runs —
//     and carries both on the termRef.
//   - Each segment is gathered independently (gather.go) in the canonical
//     term order, df ascending then token ascending, so every document
//     accumulates the identical operation sequence it would in the rebuilt
//     index; per-segment top-k candidates merge by the shared hit order.
//
// A Searcher is immutable and safe for concurrent use (per-probe state
// lives in a sync.Pool, and a probe runs on its caller's goroutine). When
// opened from disk its strings and arrays alias the file mappings: results
// must not outlive Close.
type Searcher struct {
	segs    []*segment
	numDocs int
	maxSeg  int       // largest single-segment doc count (accumulator sizing)
	gen     uint64    // manifest generation this snapshot was opened at
	pool    sync.Pool // *scratch
}

// segment is one immutable slice of the corpus: a doc table (table IDs as
// offsets plus one blob, the docs file's sections) and its term-hash
// shards. A flat-opened segment's arrays alias the file mappings the
// Searcher's Close releases.
//
//wwt:mmap-owner
type segment struct {
	base    int32 // global doc number of local doc 0
	numDocs int

	idOffs []int64
	idBlob []byte

	shards  []*shard
	closers []func() error
	mmapped bool
}

// NewSearcher freezes an index into its search form: one segment, one
// shard, holding the arrays a one-shard index directory would. The
// searcher shares nothing with the index.
func NewSearcher(ix *Index) *Searcher {
	s := &Searcher{}
	s.add(freezeSegment(ix, 1))
	return s
}

// add appends a segment, assigning it the next global doc range.
func (s *Searcher) add(seg *segment) {
	seg.base = int32(s.numDocs)
	s.segs = append(s.segs, seg)
	s.numDocs += seg.numDocs
	s.maxSeg = max(s.maxSeg, seg.numDocs)
}

// openSharded opens the given flat index directories (each written by
// WriteDir) as the segments of one searcher, in the given canonical
// order. The files are page-mapped (or read whole when noMmap is set or
// mmap is unavailable), and opening validates their headers and their
// doc-ID and term offsets, nothing more. The returned searcher's strings
// and arrays alias the mappings; results must not outlive Close. A
// directory without a flat index fails with an error wrapping
// fs.ErrNotExist, so callers can tell a missing index from a corrupt one.
func openSharded(noMmap bool, dirs ...string) (*Searcher, error) {
	s := &Searcher{}
	for _, d := range dirs {
		seg, err := openSegment(d, noMmap)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.add(seg)
	}
	return s, nil
}

// OpenSnapshot opens dir's committed manifest (or the implicit base-only
// manifest of a plain frozen index directory) as one searcher over the
// listed segments, and returns the manifest it opened. The flat files are
// page-mapped and opening validates only their headers and their doc-ID
// and term offsets, so the searcher's strings and arrays alias the
// mappings and results must not outlive Close. A directory holding
// neither a manifest nor a flat index fails with an error wrapping
// fs.ErrNotExist, so callers can tell a missing index from a corrupt one.
func OpenSnapshot(dir string) (*Searcher, Manifest, error) {
	return openSnapshot(dir, false)
}

func openSnapshot(dir string, noMmap bool) (*Searcher, Manifest, error) {
	m, err := SnapshotManifest(dir)
	if err != nil {
		return nil, m, err
	}
	dirs := make([]string, len(m.Segments))
	for i, entry := range m.Segments {
		dirs[i] = filepath.Join(dir, entry) // "." is the index root itself
	}
	s, err := openSharded(noMmap, dirs...)
	if err != nil {
		return nil, m, err
	}
	s.gen = m.Generation
	return s, m, nil
}

func (seg *segment) close() error {
	var first error
	for _, c := range seg.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	seg.closers = nil
	return first
}

// Close releases the file mappings of a disk-opened searcher. Hits, doc
// IDs and doc sets returned earlier alias the mappings and must not be
// used afterwards. Close on an in-memory searcher is a no-op.
func (s *Searcher) Close() error {
	var first error
	for _, seg := range s.segs {
		if err := seg.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Len returns the number of indexed documents.
func (s *Searcher) Len() int { return s.numDocs }

// Segments returns the segment count.
func (s *Searcher) Segments() int { return len(s.segs) }

// Generation returns the manifest generation this snapshot was opened at
// (0 for searchers assembled without a manifest).
func (s *Searcher) Generation() uint64 { return s.gen }

// SegmentLens returns the per-segment document counts in canonical order —
// the merge planner's input.
func (s *Searcher) SegmentLens() []int {
	out := make([]int, len(s.segs))
	for i, seg := range s.segs {
		out[i] = seg.numDocs
	}
	return out
}

// Shards returns the total shard count across segments.
func (s *Searcher) Shards() int {
	n := 0
	for _, seg := range s.segs {
		n += len(seg.shards)
	}
	return n
}

// Mmapped reports whether every segment aliases file mappings (as opposed
// to heap-resident arrays).
func (s *Searcher) Mmapped() bool {
	for _, seg := range s.segs {
		if !seg.mmapped {
			return false
		}
	}
	return len(s.segs) > 0
}

// idOf returns the table ID of a segment-local doc number. For disk-opened
// segments the string aliases the mapping (zero-copy).
func (seg *segment) idOf(doc int32) string {
	return unsafeString(seg.idBlob[seg.idOffs[doc]:seg.idOffs[doc+1]])
}

// IDOf returns the table ID of a global doc number.
func (s *Searcher) IDOf(doc int32) string {
	i := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].base > doc }) - 1
	return s.segs[i].idOf(doc - s.segs[i].base)
}

// find resolves a token in its home shard of the segment.
func (seg *segment) find(tok string) (*shard, int32, bool) {
	sh := seg.shards[shardOfToken(tok, len(seg.shards))]
	tid, ok := sh.lookup(tok)
	return sh, tid, ok
}

// TermStats returns a token's corpus-global union document frequency and
// total posting entries across all fields — the cost-model features a
// query planner reads before probing. Unknown tokens report ok=false.
func (s *Searcher) TermStats(tok string) (df int32, postings int, ok bool) {
	for _, seg := range s.segs {
		if sh, tid, found := seg.find(tok); found {
			ok = true
			df += sh.df[tid]
			for f := 0; f < int(numFields); f++ {
				postings += int(sh.off[f][tid+1] - sh.off[f][tid])
			}
		}
	}
	return df, postings, ok
}

// IDF returns the smoothed corpus-global inverse document frequency of a
// token (unknown tokens have df 0). It sums only the segments' dfs, not
// the posting counts TermStats adds for the cost model.
func (s *Searcher) IDF(tok string) float64 {
	if s.numDocs == 0 {
		return 1
	}
	var df int32
	for _, seg := range s.segs {
		if sh, tid, found := seg.find(tok); found {
			df += sh.df[tid]
		}
	}
	return smoothedIDF(s.numDocs, int64(df))
}

// termRef is one query term resolved in one segment: its home shard there
// and local term ID, plus the token for canonical ordering at gather time.
// The statistics are carried on the ref rather than read from the shard
// arrays because a segment's shard only knows its own doc population:
// every segment is scored under the corpus-global df/idf, which is what
// keeps segmented sums bit-identical to a single rebuilt index. The
// segment-local best-weight bound rescaled by the global idf is still a
// valid per-doc contribution bound within that segment.
type termRef struct {
	tok  string
	sh   *shard
	tid  int32
	seg  int32   // segment index
	df   int32   // corpus-global document frequency
	idf  float64 // smoothed IDF the gather multiplies by
	maxS float64 // per-doc contribution bound: idf · best cross-field weight sum
}

// cmpRefs orders refs segment-major and, within a segment, into the
// canonical accumulation order: df ascending, token ascending on ties.
// Per-document float64 sums depend on that order. Rarest-first is not
// cosmetic either: the selective terms establish the top-k floor before
// the long common lists are walked, which is what lets whole blocks of
// those lists be skipped (gather.go).
func cmpRefs(a, b termRef) int {
	if a.seg != b.seg {
		return int(a.seg - b.seg)
	}
	if a.df != b.df {
		return int(a.df - b.df)
	}
	return strings.Compare(a.tok, b.tok)
}

// accumulator is the per-probe scoring state of one segment's gather: a
// dense score array whose entries are valid only when their generation tag
// matches cur, the list of touched docs, and reusable selection scratch.
// liveBits/merged maintain the set of unfrozen candidates that whole-block
// skips check against (gather.go).
type accumulator struct {
	score   []float64
	gen     []uint32
	cur     uint32
	touched []int32
	scratch []float64 // reusable buffer for the skip-threshold selection
	suffix  []float64 // per-position admission bound

	liveBits  []uint64 // bit per doc: unfrozen candidate (whole-block skip test)
	merged    int      // touched entries already folded into liveBits
	liveBuilt bool     // liveBits materialized (first closed block encountered)
}

// scratch is the pooled per-probe state: the accumulator plus the
// resolution-side buffers (token dedup, resolved refs, merged candidates).
type scratch struct {
	acc  accumulator
	seen map[string]bool
	refs []termRef
	all  []Hit // per-segment winners, merged at the end
}

func (s *Searcher) getScratch() *scratch {
	sc, _ := s.pool.Get().(*scratch)
	if sc == nil {
		sc = &scratch{seen: make(map[string]bool, 16)}
	}
	if a := &sc.acc; len(a.score) < s.maxSeg {
		a.score = make([]float64, s.maxSeg)
		a.gen = make([]uint32, s.maxSeg)
		a.cur = 0
	}
	clear(sc.seen)
	return sc
}

// Search scores a union-of-keywords (OR) query over all three fields with
// the standard boosted TF-IDF score
//
//	score(d) = Σ_f boost_f Σ_{t∈q} (1+ln tf) · idf(t) / sqrt(len_f(d))
//
// and returns the top k hits by score then ID (all hits when k <= 0).
// tokens must already be analyzed (text.Normalize).
func (s *Searcher) Search(tokens []string, k int) []Hit {
	hits, _ := s.SearchStats(tokens, k)
	return hits
}

// SearchStats is Search plus the probe's skip counters, summed across
// segments.
//
// Every unique token is resolved in every segment's home shard and stamped
// with the corpus-global statistics. Each segment then runs the same step
// into one reused accumulator on the caller's goroutine: gather in
// canonical order with the floor carried over from already-scored
// segments' merged top k — exact, since no document spans segments, so
// later segments open with blocks already closed — and collect. The
// global top k is a subset of the per-segment top k's, so merging the
// candidate lists with the shared hit order reproduces the rebuilt index's
// result exactly.
func (s *Searcher) SearchStats(tokens []string, k int) ([]Hit, ProbeStats) {
	var st ProbeStats
	if len(tokens) == 0 || s.numDocs == 0 {
		return nil, st
	}
	sc := s.getScratch()
	defer s.pool.Put(sc)

	refs := sc.refs[:0]
	for _, tok := range tokens {
		if sc.seen[tok] {
			continue
		}
		sc.seen[tok] = true
		start := len(refs)
		var df int64
		for si, seg := range s.segs {
			if sh, tid, ok := seg.find(tok); ok {
				df += int64(sh.df[tid])
				refs = append(refs, termRef{tok: tok, sh: sh, tid: tid, seg: int32(si)})
			}
		}
		idf := smoothedIDF(s.numDocs, df)
		for i := start; i < len(refs); i++ {
			r := &refs[i]
			r.df, r.idf, r.maxS = int32(df), idf, idf*r.sh.bestW[r.tid]
		}
	}
	sc.refs = refs
	slices.SortFunc(refs, cmpRefs)

	acc := &sc.acc
	all := sc.all[:0]
	floor := math.Inf(-1)
	for len(refs) > 0 {
		n := 1
		for n < len(refs) && refs[n].seg == refs[0].seg {
			n++
		}
		seg, segRefs := s.segs[refs[0].seg], refs[:n]
		refs = refs[n:]
		acc.nextGen()
		gather(acc, segRefs, k, floor, &st)
		all = seg.collect(acc, k, all)
		if k > 0 && len(all) >= k && len(refs) > 0 { // a floor is only worth computing for a later segment
			floor = max(floor, kthHitScore(all, k, &acc.scratch))
		}
	}
	sc.all = all
	if len(all) == 0 {
		return nil, st
	}
	return selectTopHits(all, k), st
}

// kthLargest returns the kth largest score among touched docs (k <=
// len(touched)) by top-k selection over the reusable scratch slice.
func (a *accumulator) kthLargest(k int) float64 {
	a.scratch = a.scratch[:0]
	for _, d := range a.touched {
		a.scratch = append(a.scratch, a.score[d])
	}
	return kthLargest(a.scratch, k)
}

// kthHitScore returns the kth largest score among hits (k <= len(hits))
// using the accumulator's reusable selection scratch.
func kthHitScore(hits []Hit, k int, scratch *[]float64) float64 {
	s := (*scratch)[:0]
	for _, h := range hits {
		s = append(s, h.Score)
	}
	*scratch = s
	return kthLargest(s, k)
}

// kthLargest returns the kth largest of s (k <= len(s)); s is reordered.
func kthLargest(s []float64, k int) float64 {
	if k >= len(s) {
		// topKSelect returns the slice unheapified in this case, so its
		// [0] would be arbitrary; the kth largest of k items is the min.
		return slices.Min(s)
	}
	// Worst-first heap of the k largest: the root is the kth largest.
	return topKSelect(s, k, func(x, y float64) bool { return x < y })[0]
}

// worseDoc reports whether local doc a ranks strictly below doc b (lower
// score, or equal score and lexicographically larger table ID) — the
// inverse of the hit ordering.
func (seg *segment) worseDoc(acc *accumulator, a, b int32) bool {
	sa, sb := acc.score[a], acc.score[b]
	if sa != sb {
		return sa < sb
	}
	return seg.idOf(a) > seg.idOf(b)
}

// collect selects the segment's top k touched docs (all when k <= 0) and
// appends them to out as hits, unsorted.
func (seg *segment) collect(acc *accumulator, k int, out []Hit) []Hit {
	winners := acc.touched
	if k > 0 {
		winners = topKSelect(acc.touched, k, func(a, b int32) bool { return seg.worseDoc(acc, a, b) })
	}
	for _, d := range winners {
		out = append(out, Hit{ID: seg.idOf(d), Doc: seg.base + d, Score: acc.score[d]})
	}
	return out
}

// appendGlobal rebases a segment's fresh local doc set in place and
// appends it to out. Segment bases ascend, so out stays sorted.
func appendGlobal(out, set []int32, base int32) []int32 {
	for i := range set {
		set[i] += base
	}
	if out == nil && len(set) > 0 {
		return set
	}
	return append(out, set...)
}

// DocSet returns the sorted global set of documents containing *all*
// tokens, each in at least one of the given fields. Used by PMI²: H(Qℓ) is
// DocSet(Qℓ, header, context); B(cell) is DocSet(cellTokens, content). A
// document's tokens all live in its own segment, so the intersection runs
// per segment — rarest term first, which keeps intermediate sets small —
// and the rebased results concatenate. The slice is freshly allocated and
// safe to retain across Close.
func (s *Searcher) DocSet(tokens []string, fields ...Field) []int32 {
	uniq := dedup(tokens)
	var out []int32
	refs := make([]termRef, 0, len(uniq))
	for _, seg := range s.segs {
		refs = refs[:0]
		for _, tok := range uniq {
			sh, tid, ok := seg.find(tok)
			if !ok {
				refs = refs[:0] // a token absent from the segment empties its set
				break
			}
			refs = append(refs, termRef{tok: tok, sh: sh, tid: tid, df: sh.df[tid]})
		}
		if len(refs) == 0 {
			continue
		}
		slices.SortFunc(refs, cmpRefs)
		set := refs[0].sh.termDocs(refs[0].tid, fields)
		for _, r := range refs[1:] {
			if len(set) == 0 {
				break
			}
			set = intersectSorted(set, r.sh.termDocs(r.tid, fields))
		}
		out = appendGlobal(out, set, seg.base)
	}
	return out
}

// HeaderContextDocs returns H(Qℓ) for the PMI² feature: the documents whose
// header or context holds every token.
func (s *Searcher) HeaderContextDocs(tokens []string) []int32 {
	return s.DocSet(tokens, FieldHeader, FieldContext)
}

// ContentDocs returns B(cell) for the PMI² feature: the documents whose
// content holds every token.
func (s *Searcher) ContentDocs(tokens []string) []int32 {
	return s.DocSet(tokens, FieldContent)
}
