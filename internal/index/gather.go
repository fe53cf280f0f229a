package index

import "math"

// This file is the one scoring gather. Searcher.SearchStats resolves the
// query terms into termRefs (a shard plus a local term ID), sorts each
// segment's into the canonical term order, and hands them to gather, which
// accumulates per-document float64 scores in exactly that order — the
// property the bit-identity tests pin.
//
// On top of the PR 1 term-level max-score skip, gather layers three exact
// pruning mechanisms, all of which only ever discard work that provably
// cannot change the top k:
//
//  1. Block closure. Using the per-block summaries, a posting block whose
//     best reachable score — idf·blkMax for the block, plus the term's
//     other-field maxima, plus the suffix bound of all later terms — sits
//     strictly below the current threshold cannot introduce a new top-k
//     document. The block stops admitting candidates (documents first seen
//     there are provably non-winners) but still updates ones already
//     admitted.
//  2. Freezing. Whenever the threshold is recomputed, touched documents
//     whose score plus the remaining suffix bound sit strictly below it are
//     provably out of the top k: their score is set to -Inf (so any later
//     update self-absorbs) and they leave the candidate list. The k
//     documents defining the threshold can never freeze, so winners always
//     survive with exact, fully-accumulated scores.
//  3. Whole-block skips. A closed block whose stored doc-ID range contains
//     no live candidate has nothing left to contribute — it is skipped
//     without touching its posting pages at all. Only the dense block
//     summaries (~1/blockSize of the postings) are read.
//
// All bound comparisons carry the same 1e-9 absolute slack as the original
// max-score skip, absorbing summation-order rounding in the bounds; the
// winners' scores themselves are always the exact canonical-order sums.

// postingBlockSize is the posting-block width NewSearcher and the writer
// use: 128 postings ≈ 1KiB of doc+weight data per block, giving summaries
// 1/128 the size of the postings they bound. The reader accepts any
// positive width a file header declares.
const postingBlockSize = 128

// laneWidth is the fixed group width of the lane-grouped accumulation loop.
const laneWidth = 8

// ProbeStats reports how much scoring work one probe actually did against
// the posting volume its terms resolved to — the skip counters behind the
// wwt_probe_* metrics and the planner's scanned-fraction feature.
type ProbeStats struct {
	Postings      int64 // posting entries across all resolved (term, field) lists
	Scanned       int64 // posting entries actually visited by the accumulator
	BlocksTotal   int64 // posting blocks considered on block-summarized lists
	BlocksSkipped int64 // blocks skipped outright (closed, no live candidate in range)
	ShardsProbed  int   // shards that received a scatter
	ShardsPruned  int   // shards whose scatter was pruned by the score floor
}

// computeBlocks fills the shard's block-summary arrays from its CSR
// postings: per (term, field) list, fixed-width blocks with the maximum
// posting weight and first doc ID of each, plus the per-term per-field
// maximum weight used in cross-field bounds. Blocks are aligned to each
// list's start, so the summaries are exactly reproducible from the
// postings (the writer persists these arrays verbatim).
func (sh *shard) computeBlocks(blockSize int) {
	sh.blockSize = blockSize
	for f := 0; f < int(numFields); f++ {
		sh.blkOff[f] = make([]int32, sh.numTerms+1)
		nb := 0
		for t := 0; t < sh.numTerms; t++ {
			sh.blkOff[f][t] = int32(nb)
			n := int(sh.off[f][t+1] - sh.off[f][t])
			nb += (n + blockSize - 1) / blockSize
		}
		sh.blkOff[f][sh.numTerms] = int32(nb)
		sh.blkMax[f] = make([]float32, nb)
		sh.blkDoc[f] = make([]int32, nb)
		sh.fieldMaxW[f] = make([]float32, sh.numTerms)
		for t := 0; t < sh.numTerms; t++ {
			lo, hi := int(sh.off[f][t]), int(sh.off[f][t+1])
			b := int(sh.blkOff[f][t])
			var fieldMax float32
			for p := lo; p < hi; p += blockSize {
				end := min(p+blockSize, hi)
				var m float32
				for _, w := range sh.wts[f][p:end] {
					if w > m {
						m = w
					}
				}
				sh.blkMax[f][b] = m
				sh.blkDoc[f][b] = sh.docs[f][p]
				if m > fieldMax {
					fieldMax = m
				}
				b++
			}
			sh.fieldMaxW[f][t] = fieldMax
		}
	}
}

// nextGen advances the accumulator to a fresh generation: previously
// touched scores become stale without clearing the dense arrays.
func (a *accumulator) nextGen() {
	a.cur++
	if a.cur == 0 { // generation counter wrapped: hard reset
		clear(a.gen)
		a.cur = 1
	}
	a.touched = a.touched[:0]
	a.merged = 0
	a.liveBuilt = false
}

// freeze drops candidates that can no longer reach the top k: a touched
// document whose score plus the remaining-terms bound sits strictly below
// the threshold is provably beaten by at least k others. Its score becomes
// -Inf — any later posting update self-absorbs without a branch — and it
// leaves both the touched and live lists. The k documents defining the
// threshold always have score >= threshold and therefore never freeze.
func (a *accumulator) freeze(threshold, remaining float64) {
	if a.liveBuilt {
		a.mergeLive()
	}
	keep := a.touched[:0]
	for _, d := range a.touched {
		if a.score[d]+remaining < threshold-1e-9 {
			a.score[d] = math.Inf(-1)
			if a.liveBuilt {
				a.liveBits[d>>6] &^= 1 << (uint32(d) & 63)
			}
		} else {
			keep = append(keep, d)
		}
	}
	a.touched = keep
	if a.liveBuilt {
		a.merged = len(keep)
	}
}

// mergeLive keeps the live-candidate bitmap current, materializing it from
// touched the first time a closed block needs it. Until a block actually
// closes, no candidate structure is built at all — on corpora where block
// closure never triggers, gather costs the same as the plain term-level
// path. Folding later admissions in is one bit-set per new candidate; O(1)
// when nothing changed since the last merge.
func (a *accumulator) mergeLive() {
	if !a.liveBuilt {
		nw := (len(a.score) + 63) >> 6
		if cap(a.liveBits) < nw {
			a.liveBits = make([]uint64, nw)
		} else {
			a.liveBits = a.liveBits[:nw]
			clear(a.liveBits)
		}
		for _, d := range a.touched {
			a.liveBits[d>>6] |= 1 << (uint32(d) & 63)
		}
		a.merged = len(a.touched)
		a.liveBuilt = true
		return
	}
	for _, d := range a.touched[a.merged:] {
		a.liveBits[d>>6] |= 1 << (uint32(d) & 63)
	}
	a.merged = len(a.touched)
}

// liveInRange reports whether any live candidate has a doc ID in [lo, hi).
func (a *accumulator) liveInRange(lo, hi int32) bool {
	if n := int32(len(a.liveBits)) << 6; hi > n {
		hi = n // doc IDs are < len(score) <= n, so clamping loses nothing
	}
	if lo >= hi {
		return false
	}
	w0, w1 := int(lo)>>6, int(hi-1)>>6
	first := ^uint64(0) << (uint32(lo) & 63)
	last := ^uint64(0) >> (63 - (uint32(hi-1) & 63))
	if w0 == w1 {
		return a.liveBits[w0]&first&last != 0
	}
	if a.liveBits[w0]&first != 0 {
		return true
	}
	for w := w0 + 1; w < w1; w++ {
		if a.liveBits[w] != 0 {
			return true
		}
	}
	return a.liveBits[w1]&last != 0
}

// scanList applies one posting run to the accumulator in lane groups of
// laneWidth: weight products are computed into a fixed-width buffer with
// bounds checks hoisted by the full-slice reslicing, then applied in
// posting order. Every document sees the identical operation sequence
// (idf·float64(w), then one += or store) as a scalar loop, so scores stay
// bit-identical. updateOnly suppresses admission of unseen documents.
func (a *accumulator) scanList(idf float64, ds []int32, ws []float32, updateOnly bool) {
	var lane [laneWidth]float64
	j := 0
	for ; j+laneWidth <= len(ds); j += laneWidth {
		dg := ds[j : j+laneWidth : j+laneWidth]
		wg := ws[j : j+laneWidth : j+laneWidth]
		for l := 0; l < laneWidth; l++ {
			lane[l] = idf * float64(wg[l])
		}
		if updateOnly {
			for l := 0; l < laneWidth; l++ {
				if d := dg[l]; a.gen[d] == a.cur {
					a.score[d] += lane[l]
				}
			}
		} else {
			for l := 0; l < laneWidth; l++ {
				d := dg[l]
				if a.gen[d] == a.cur {
					a.score[d] += lane[l]
				} else {
					a.gen[d] = a.cur
					a.score[d] = lane[l]
					a.touched = append(a.touched, d)
				}
			}
		}
	}
	for ; j < len(ds); j++ {
		w := idf * float64(ws[j])
		d := ds[j]
		if a.gen[d] == a.cur {
			a.score[d] += w
		} else if !updateOnly {
			a.gen[d] = a.cur
			a.score[d] = w
			a.touched = append(a.touched, d)
		}
	}
}

// gather accumulates refs — already sorted into canonical lexicographic
// term order — into acc. k bounds the selection (k <= 0 scans everything
// with no pruning); floor preseeds the admission threshold with an
// externally established lower bound on the kth-best final score (-Inf for
// none); st collects the skip counters.
func gather(acc *accumulator, refs []termRef, k int, floor float64, st *ProbeStats) {
	n := len(refs)
	// suffix[i]: the best score any document matching only terms i..n can
	// reach — the admission bound for documents first seen at term i.
	if cap(acc.suffix) < n+1 {
		acc.suffix = make([]float64, n+1)
	}
	suffix := acc.suffix[:n+1]
	acc.suffix = suffix
	suffix[n] = 0
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + refs[i].maxS
	}
	acc.merged = 0
	acc.liveBuilt = false

	updateOnly := false
	threshold := floor
	seeded := !math.IsInf(floor, -1)
	touchedAtThreshold := -1
	for i, r := range refs {
		if k > 0 && !updateOnly && (seeded || len(acc.touched) >= k) {
			// Partial scores only grow, so the kth largest partial score is
			// a valid lower bound on the final kth-best score (as is a
			// preseeded floor). A document unseen so far can reach at most
			// suffix[i]; strictly below the bound it can neither beat nor
			// tie the current top k. The 1e-9 slack absorbs summation-order
			// rounding in the bound.
			//
			// The bound stays valid as terms advance, so first retry the
			// last computed threshold for free; recompute (an O(touched)
			// scan) only while the candidate set keeps growing materially.
			if threshold > suffix[i]+1e-9 {
				updateOnly = true
			} else if len(acc.touched) >= k &&
				(touchedAtThreshold < 0 || len(acc.touched) > touchedAtThreshold+touchedAtThreshold/4) {
				if t := acc.kthLargest(k); t > threshold {
					threshold = t
				}
				touchedAtThreshold = len(acc.touched)
				acc.freeze(threshold, suffix[i])
				if threshold > suffix[i]+1e-9 {
					updateOnly = true
				}
			}
		}
		sh := r.sh
		idf := r.idf
		active := threshold > math.Inf(-1) && k > 0
		for f := 0; f < int(numFields); f++ {
			lo, hi := sh.off[f][r.tid], sh.off[f][r.tid+1]
			if lo == hi {
				continue
			}
			st.Postings += int64(hi - lo)
			if !active && !updateOnly {
				// No threshold yet: every block is open, scan flat.
				acc.scanList(idf, sh.docs[f][lo:hi], sh.wts[f][lo:hi], false)
				st.Scanned += int64(hi - lo)
				continue
			}
			// Cross-field bound: beyond one block of this list, a document
			// can still collect at most the other fields' maxima for this
			// term plus everything later terms offer. (Earlier fields are
			// included too — a looser but still valid bound.)
			rest := suffix[i+1]
			for f2 := 0; f2 < int(numFields); f2++ {
				if f2 != f {
					rest += idf * float64(sh.fieldMaxW[f2][r.tid])
				}
			}
			base := int(sh.blkOff[f][r.tid])
			nb := int(sh.blkOff[f][r.tid+1]) - base
			ds := sh.docs[f][lo:hi]
			ws := sh.wts[f][lo:hi]
			bm := sh.blkMax[f][base : base+nb]
			bd := sh.blkDoc[f][base : base+nb]
			bs := sh.blockSize
			st.BlocksTotal += int64(nb)
			for b := 0; b < nb; b++ {
				p := b * bs
				q := min(p+bs, len(ds))
				closed := updateOnly || threshold > idf*float64(bm[b])+rest+1e-9
				if !closed {
					acc.scanList(idf, ds[p:q], ws[p:q], false)
					st.Scanned += int64(q - p)
					continue
				}
				// Closed: the block cannot introduce a new top-k document.
				// If no live candidate falls in its doc range either, skip
				// it without touching the posting pages.
				acc.mergeLive()
				hiDoc := int32(math.MaxInt32)
				if b+1 < nb {
					hiDoc = bd[b+1]
				}
				if !acc.liveInRange(bd[b], hiDoc) {
					st.BlocksSkipped++
					continue
				}
				acc.scanList(idf, ds[p:q], ws[p:q], true)
				st.Scanned += int64(q - p)
			}
		}
	}
}
