package index

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// shard is one term-hash partition of a segment: a term table in
// lexicographic order plus the per-field CSR arrays over the segment's
// doc space, with the length-normalized boosted weight
// (1+ln tf)·boost_f/√len_f(d) precomputed at freeze time so a probe is a
// pure gather-multiply-accumulate over idf. Its arrays are exactly the
// sections of one postings file: a frozen shard holds them on the heap,
// a flat-opened one as zero-copy views over the file's mapping (the
// Searcher that opened it owns the mapping and its Close is the unmap
// point — mmapalias invariant).
//
//wwt:mmap-owner
type shard struct {
	numTerms int
	termOffs []int64
	termBlob []byte

	bestW []float64 // per term: max per-doc cross-field weight sum (idf-free)
	df    []int32

	off  [numFields][]int32
	docs [numFields][]int32
	wts  [numFields][]float32

	// Block-max summaries (gather.go). blockSize is postingBlockSize for
	// a freshly frozen shard, or whatever positive width the opened
	// file's header declares.
	blockSize int
	blkOff    [numFields][]int32   // per term: cumulative block counts (numTerms+1)
	blkMax    [numFields][]float32 // per block: max posting weight
	blkDoc    [numFields][]int32   // per block: first doc ID
	fieldMaxW [numFields][]float32 // per term: max posting weight in the field
}

// postingWeight is the per-posting score weight: boost_f · (1+ln tf) /
// √len_f(d), rounded to float32 (the storage precision) so every scorer
// sees the same value.
func postingWeight(f int, tf, fieldLen float32) float32 {
	l := float64(fieldLen)
	if l < 1 {
		l = 1
	}
	return float32(Boosts[f] * (1 + math.Log(float64(tf))) / math.Sqrt(l))
}

// smoothedIDF is the one idf formula: log(1 + N/(1+df)). Probes call it
// with the corpus-global df and doc count, so a segmented corpus scores
// under exactly the float64 a rebuilt index would.
func smoothedIDF(numDocs int, df int64) float64 {
	return math.Log(1 + float64(numDocs)/float64(1+df))
}

// shardOfToken is the stable (cross-process) term→shard assignment:
// FNV-1a 64 over the token bytes, mod the shard count. Inlined so probes
// don't allocate a hash.Hash per token.
func shardOfToken(tok string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(tok); i++ {
		h ^= uint64(tok[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// termName returns term i's token.
func (sh *shard) termName(i int32) string {
	return unsafeString(sh.termBlob[sh.termOffs[i]:sh.termOffs[i+1]])
}

// lookup binary-searches the shard's lexicographic term table, so opening
// builds no map.
func (sh *shard) lookup(tok string) (int32, bool) {
	lo, hi := int32(0), int32(sh.numTerms)
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if sh.termName(mid) < tok {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int32(sh.numTerms) && sh.termName(lo) == tok {
		return lo, true
	}
	return 0, false
}

// freezeSegment lays an index out as one segment of n term-hash shards,
// building each shard's arrays directly in the form its postings file
// holds, and the doc table as the docs file does — so a frozen segment and
// a flat-opened one differ only in where their arrays live. Nothing in the
// segment aliases the index.
func freezeSegment(ix *Index, n int) *segment {
	terms := make([]string, 0, len(ix.df))
	for tok := range ix.df {
		terms = append(terms, tok)
	}
	sort.Strings(terms)
	byShard := make([][]string, n)
	for _, tok := range terms { // each bucket stays in lexicographic order
		g := shardOfToken(tok, n)
		byShard[g] = append(byShard[g], tok)
	}
	seg := &segment{numDocs: len(ix.ids), shards: make([]*shard, n)}
	seg.idOffs, seg.idBlob = packStrings(ix.ids)
	for g, names := range byShard {
		seg.shards[g] = newShard(ix, names)
	}
	return seg
}

// newShard freezes the given sorted terms of an index into one shard.
func newShard(ix *Index, names []string) *shard {
	sh := &shard{
		numTerms: len(names),
		bestW:    make([]float64, len(names)),
		df:       make([]int32, len(names)),
	}
	sh.termOffs, sh.termBlob = packStrings(names)
	for f := 0; f < int(numFields); f++ {
		total := 0
		for _, tok := range names {
			total += len(ix.postings[f][tok])
		}
		sh.off[f] = make([]int32, len(names)+1)
		sh.docs[f] = make([]int32, 0, total)
		sh.wts[f] = make([]float32, 0, total)
	}
	for ti, tok := range names {
		sh.df[ti] = int32(ix.df[tok])
		for f := 0; f < int(numFields); f++ {
			sh.off[f][ti] = int32(len(sh.docs[f]))
			for _, p := range ix.postings[f][tok] {
				sh.docs[f] = append(sh.docs[f], p.Doc)
				sh.wts[f] = append(sh.wts[f], postingWeight(f, p.TF, ix.fieldLen[f][p.Doc]))
			}
		}
	}
	for f := 0; f < int(numFields); f++ {
		sh.off[f][len(names)] = int32(len(sh.docs[f]))
	}
	// bestW[t] bounds the contribution of term t to any single document: a
	// doc matching t in several fields accumulates the SUM of its per-field
	// weights, so the bound is the max per-doc cross-field sum, found with a
	// 3-way merge over the term's doc-sorted ranges.
	for ti := range names {
		var pos, hi [numFields]int32
		for f := 0; f < int(numFields); f++ {
			pos[f], hi[f] = sh.off[f][ti], sh.off[f][ti+1]
		}
		best := 0.0
		for {
			min := int32(math.MaxInt32)
			for f := 0; f < int(numFields); f++ {
				if pos[f] < hi[f] && sh.docs[f][pos[f]] < min {
					min = sh.docs[f][pos[f]]
				}
			}
			if min == math.MaxInt32 {
				break
			}
			sum := 0.0
			for f := 0; f < int(numFields); f++ {
				if pos[f] < hi[f] && sh.docs[f][pos[f]] == min {
					sum += float64(sh.wts[f][pos[f]])
					pos[f]++
				}
			}
			if sum > best {
				best = sum
			}
		}
		sh.bestW[ti] = best
	}
	sh.computeBlocks(postingBlockSize)
	return sh
}

// shardFileName names shard g's postings file inside an index directory.
func shardFileName(g int) string { return fmt.Sprintf("postings-%03d.wwt", g) }

// DocsFileName is the shared doc-table file of a flat sharded index; its
// presence marks a directory as holding one.
const DocsFileName = "docs.wwt"

// MaxShards bounds the builder: beyond this, per-shard overhead dwarfs any
// fan-out win and the file-per-shard layout stops making sense.
const MaxShards = 4096

// maxSectionInt32 bounds per-field posting counts: the CSR offsets (and
// the block counts derived from them) are int32 section arrays. A var
// so tests can exercise the bound without a 2^31-posting corpus.
var maxSectionInt32 = math.MaxInt32

// writeSegment persists a frozen segment as a flat index under dir: the
// shared doc-table file plus one postings file per shard, each in the
// versioned mmap-friendly layout described in the package documentation
// and synced before it is closed. A shard over the int32 section bound
// fails before any file is written.
func writeSegment(dir string, seg *segment) error {
	for g, sh := range seg.shards {
		for f := 0; f < int(numFields); f++ {
			if n := len(sh.docs[f]); n > maxSectionInt32 {
				return fmt.Errorf("index write: shard %d field %s has %d postings, over the int32 section-offset bound (%d); rebuild with more shards",
					g, Field(f), n, maxSectionInt32)
			}
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("index write: %w", err)
	}
	nShards := uint32(len(seg.shards))
	err := writeFlatFile(filepath.Join(dir, DocsFileName), 0, kindDocs, 0, nShards,
		uint64(seg.numDocs), 0, []section{
			{secIDOffs, rawBytes(seg.idOffs)},
			{secIDBlob, seg.idBlob},
		})
	if err != nil {
		return fmt.Errorf("index write: %w", err)
	}
	for g, sh := range seg.shards {
		secs := []section{
			{secTermOffs, rawBytes(sh.termOffs)},
			{secTermBlob, sh.termBlob},
			{secDF, rawBytes(sh.df)},
			// The idf-free best weight backs the corpus-global bounds.
			{secBestWeight, rawBytes(sh.bestW)},
		}
		for f := 0; f < int(numFields); f++ {
			secs = append(secs,
				section{secFieldOff(f), rawBytes(sh.off[f])},
				section{secFieldDocs(f), rawBytes(sh.docs[f])},
				section{secFieldWts(f), rawBytes(sh.wts[f])},
			)
		}
		for f := 0; f < int(numFields); f++ {
			secs = append(secs,
				section{secFieldBlkOff(f), rawBytes(sh.blkOff[f])},
				section{secFieldBlkMax(f), rawBytes(sh.blkMax[f])},
				section{secFieldBlkDoc(f), rawBytes(sh.blkDoc[f])},
				section{secFieldFieldMax(f), rawBytes(sh.fieldMaxW[f])},
			)
		}
		err := writeFlatFile(filepath.Join(dir, shardFileName(g)), uint32(sh.blockSize), kindPostings,
			uint32(g), nShards, uint64(seg.numDocs), uint64(sh.numTerms), secs)
		if err != nil {
			return fmt.Errorf("index write: %w", err)
		}
	}
	return nil
}

// openSegment opens one flat index directory as a segment. It validates
// the headers, the doc-ID and term offsets and every posting's doc number
// — no decode, no map building — so opening costs O(docs + terms +
// postings) reads of the mapping.
// noMmap forces the portable read-into-memory path (exercised by tests;
// also the only path on platforms without mmap).
func openSegment(dir string, noMmap bool) (*segment, error) {
	df, err := openFlatFile(filepath.Join(dir, DocsFileName), noMmap)
	if err != nil {
		return nil, err
	}
	seg := &segment{mmapped: !noMmap}
	seg.closers = append(seg.closers, df.Close)
	fail := func(e error) (*segment, error) {
		seg.close()
		return nil, e
	}
	if df.kind != kindDocs {
		return fail(df.corrupt("file kind %d, want doc table (%d)", df.kind, kindDocs))
	}
	if df.shardCount < 1 || df.shardCount > MaxShards {
		return fail(df.corrupt("shard count %d out of range", df.shardCount))
	}
	seg.numDocs = int(df.numDocs)
	nShards := int(df.shardCount)
	if seg.idOffs, seg.idBlob, err = df.stringsSec(secIDOffs, secIDBlob, seg.numDocs, "doc-ID"); err != nil {
		return fail(err)
	}
	seg.shards = make([]*shard, nShards)
	for g := 0; g < nShards; g++ {
		pf, err := openFlatFile(filepath.Join(dir, shardFileName(g)), noMmap)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return fail(fmt.Errorf("index open %s: shard file %s missing (doc table says %d shards): %w",
					dir, shardFileName(g), nShards, err))
			}
			return fail(err)
		}
		seg.closers = append(seg.closers, pf.Close)
		sh, err := openShardFile(pf, g, nShards, seg.numDocs)
		if err != nil {
			return fail(err)
		}
		seg.shards[g] = sh
	}
	return seg, nil
}

// openShardFile validates one postings file's header against the doc
// table and aliases its sections into a shard.
func openShardFile(pf *flatFile, g, shardCount, numDocs int) (*shard, error) {
	if pf.kind != kindPostings {
		return nil, pf.corrupt("file kind %d, want postings shard (%d)", pf.kind, kindPostings)
	}
	if int(pf.shardIndex) != g || int(pf.shardCount) != shardCount {
		return nil, pf.corrupt("shard %d/%d, doc table says %d/%d — files from different builds mixed in one directory?",
			pf.shardIndex, pf.shardCount, g, shardCount)
	}
	if int(pf.numDocs) != numDocs {
		return nil, pf.corrupt("shard built over %d docs, doc table has %d — files from different builds mixed in one directory?",
			pf.numDocs, numDocs)
	}
	sh := &shard{numTerms: int(pf.numTerms)}
	var err error
	if sh.termOffs, sh.termBlob, err = pf.stringsSec(secTermOffs, secTermBlob, sh.numTerms, "term"); err != nil {
		return nil, err
	}
	if sh.df, err = numSec[int32](pf, secDF, sh.numTerms); err != nil {
		return nil, err
	}
	if _, ok := pf.secs[secBestWeight]; !ok {
		return nil, fmt.Errorf("index open %s: postings file without the best-weight section (%d) predates this build's format; rebuild the directory with wwt-index",
			pf.path, secBestWeight)
	}
	if sh.bestW, err = numSec[float64](pf, secBestWeight, sh.numTerms); err != nil {
		return nil, err
	}
	for f := 0; f < int(numFields); f++ {
		if sh.off[f], err = numSec[int32](pf, secFieldOff(f), sh.numTerms+1); err != nil {
			return nil, err
		}
		// Every term's postings must slice inside the field's lists: the
		// offsets start at 0, never decrease, and end at the count the
		// docs and weights sections are sized to.
		off := sh.off[f]
		if off[0] != 0 {
			return nil, pf.corrupt("field %s postings offsets start at %d, want 0", Field(f), off[0])
		}
		for t := 1; t <= sh.numTerms; t++ {
			if off[t] < off[t-1] {
				return nil, pf.corrupt("field %s postings offset %d is %d, below the one before it (%d)", Field(f), t, off[t], off[t-1])
			}
		}
		count := int(off[sh.numTerms])
		if sh.docs[f], err = numSec[int32](pf, secFieldDocs(f), count); err != nil {
			return nil, err
		}
		if sh.wts[f], err = numSec[float32](pf, secFieldWts(f), count); err != nil {
			return nil, err
		}
	}
	// Block-max summaries. Their layout is validated: blkOff starts at 0
	// and gives every term exactly ceil(postings / blockSize) blocks, so
	// each term's blocks slice inside the block sections, which are sized
	// to the last entry. Of their values only the first docs are checked
	// (against the postings, below); a wrong weight bound can cost a
	// probe its exactness, never its memory safety.
	if pf.blockSize <= 0 {
		return nil, pf.corrupt("header declares block size %d, want > 0", pf.blockSize)
	}
	sh.blockSize = pf.blockSize
	for f := 0; f < int(numFields); f++ {
		if sh.blkOff[f], err = numSec[int32](pf, secFieldBlkOff(f), sh.numTerms+1); err != nil {
			return nil, err
		}
		blk, off := sh.blkOff[f], sh.off[f]
		if blk[0] != 0 {
			return nil, pf.corrupt("field %s block offsets start at %d, want 0", Field(f), blk[0])
		}
		for t := 0; t < sh.numTerms; t++ {
			if got, want := int(blk[t+1])-int(blk[t]), (int(off[t+1]-off[t])+sh.blockSize-1)/sh.blockSize; got != want {
				return nil, pf.corrupt("field %s term %d has %d posting blocks, want %d", Field(f), t, got, want)
			}
		}
		nb := int(blk[sh.numTerms])
		if sh.blkMax[f], err = numSec[float32](pf, secFieldBlkMax(f), nb); err != nil {
			return nil, err
		}
		if sh.blkDoc[f], err = numSec[int32](pf, secFieldBlkDoc(f), nb); err != nil {
			return nil, err
		}
		if sh.fieldMaxW[f], err = numSec[float32](pf, secFieldFieldMax(f), sh.numTerms); err != nil {
			return nil, err
		}
		// Doc numbers index the probe's accumulator, so each must name a
		// document of the segment, and each block's first-doc summary
		// must be its first posting's: the skip test reads the summaries
		// in place of the postings.
		docs, bd := sh.docs[f], sh.blkDoc[f]
		for p, d := range docs {
			if uint32(d) >= uint32(numDocs) {
				return nil, pf.corrupt("field %s posting %d names doc %d, the segment has %d docs", Field(f), p, d, numDocs)
			}
		}
		for t := 0; t < sh.numTerms; t++ {
			for b, p := int(blk[t]), int(off[t]); b < int(blk[t+1]); b, p = b+1, p+sh.blockSize {
				if bd[b] != docs[p] {
					return nil, pf.corrupt("field %s block %d starts at doc %d, its summary says %d", Field(f), b, docs[p], bd[b])
				}
			}
		}
	}
	return sh, nil
}

// termDocs returns the sorted, freshly allocated doc set (segment-local
// numbers) containing term ti in any of the given fields. Per-field
// posting lists are already doc-sorted, so multiple fields k-way merge.
// Duplicate fields are ignored.
func (sh *shard) termDocs(ti int32, fields []Field) []int32 {
	var lists [int(numFields)][]int32
	var used [int(numFields)]bool
	n := 0
	for _, f := range fields {
		if used[f] {
			continue
		}
		used[f] = true
		lo, hi := sh.off[f][ti], sh.off[f][ti+1]
		if lo < hi {
			lists[n] = sh.docs[f][lo:hi]
			n++
		}
	}
	return mergeSortedDocLists(lists[:n])
}

// mergeSortedDocLists k-way merges up to numFields sorted doc lists into a
// fresh deduplicated sorted slice.
func mergeSortedDocLists(lists [][]int32) []int32 {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return slices.Clone(lists[0])
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]int32, 0, total)
	pos := make([]int, len(lists))
	for {
		min := int32(math.MaxInt32)
		found := false
		for li, l := range lists {
			if pos[li] < len(l) && l[pos[li]] < min {
				min = l[pos[li]]
				found = true
			}
		}
		if !found {
			return out
		}
		for li, l := range lists {
			if pos[li] < len(l) && l[pos[li]] == min {
				pos[li]++
			}
		}
		out = append(out, min)
	}
}
