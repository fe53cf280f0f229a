package index

import (
	"reflect"
	"testing"

	"wwt/internal/wtable"
)

// TestDocSetCacheAdoptFrom pins the generation-migration contract: a new
// generation's cache adopts the old generation's entries and evicts
// exactly the keys the stale predicate marks — warm live entries keep
// serving hits across the swap instead of starting cold.
func TestDocSetCacheAdoptFrom(t *testing.T) {
	ix, _ := buildRandCorpus(t, 21, 30)
	s := NewSearcher(ix)

	old := NewDocSetCache(s, 64)
	warm := [][]string{{"alpha", "beta"}, {"gamma"}, {"delta", "beta"}}
	for _, toks := range warm {
		old.DocSet(toks)
	}
	if old.Len() != len(warm) {
		t.Fatalf("old cache len %d, want %d", old.Len(), len(warm))
	}

	next := NewDocSetCache(s, 64)
	adopted, evicted := next.AdoptFrom(old, func(tokens []string) bool {
		for _, tok := range tokens {
			if tok == "beta" {
				return true
			}
		}
		return false
	})
	if adopted != 3 || evicted != 2 {
		t.Fatalf("AdoptFrom = (%d adopted, %d evicted), want (3, 2)", adopted, evicted)
	}
	if next.Len() != 1 {
		t.Fatalf("post-adopt len %d, want 1", next.Len())
	}
	// The surviving entry is warm: the next lookup is a hit with the old
	// generation's value.
	want := old.DocSet([]string{"gamma"})
	got := next.DocSet([]string{"gamma"})
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("surviving entry = %v, want %v", got, want)
	}
	if hits, _ := next.Stats(); hits != 1 {
		t.Fatalf("surviving entry missed (hits=%d)", hits)
	}
	// A staled key recomputes (miss), it was not served stale.
	next.DocSet([]string{"alpha", "beta"})
	if _, misses := next.Stats(); misses != 1 {
		t.Fatalf("staled entry did not recompute (misses=%d)", misses)
	}
	t.Run("across segment counts", adoptAcrossSegmentCounts)
}

// adoptAcrossSegmentCounts re-adopts one cache lineage through append-only generations of 1, 2 and 3 segments: at every swap
// exactly the keys naming a token of the newest segment are evicted, the
// survivors keep serving hits, and every lookup — adopted or recomputed —
// equals the new generation's uncached doc set (prior documents keep their
// global doc numbers, so a surviving set is still the right answer).
func adoptAcrossSegmentCounts(t *testing.T) {
	segTables := [][]*wtable.Table{
		{mkTable("a0", []string{"alpha"}, [][]string{{"beta"}, {"gamma"}}, ""),
			mkTable("a1", []string{"gamma"}, [][]string{{"alpha"}}, "")},
		{mkTable("b0", []string{"beta"}, [][]string{{"zeta"}}, "")},
		{mkTable("c0", []string{"gamma"}, [][]string{{"eta"}}, "")},
	}
	generation := func(k int) *Searcher {
		s := &Searcher{}
		for _, tables := range segTables[:k] {
			ix, err := Build(tables)
			if err != nil {
				t.Fatal(err)
			}
			s.add(NewSearcher(ix).segs[0])
		}
		return s
	}
	keys := [][]string{{"alpha"}, {"beta"}, {"gamma"}, {"alpha", "gamma"}}
	wantEvicted := []int{0, 1, 2} // per generation: keys naming beta, then gamma

	var prev *DocSetCache
	for k := 1; k <= len(segTables); k++ {
		s := generation(k)
		if s.Segments() != k {
			t.Fatalf("generation %d has %d segments", k, s.Segments())
		}
		c := NewDocSetCache(s, 64)
		if prev != nil {
			adopted, evicted := c.AdoptFrom(prev, func(tokens []string) bool {
				for _, tok := range tokens {
					if s.SegmentHasTerm(k-1, tok) {
						return true
					}
				}
				return false
			})
			if adopted != len(keys) || evicted != wantEvicted[k-1] {
				t.Fatalf("generation %d: AdoptFrom = (%d adopted, %d evicted), want (%d, %d)",
					k, adopted, evicted, len(keys), wantEvicted[k-1])
			}
		}
		for _, toks := range keys {
			if got, want := c.DocSet(toks), s.DocSet(toks); !reflect.DeepEqual(got, want) {
				t.Fatalf("generation %d: DocSet(%v) = %v, want %v", k, toks, got, want)
			}
		}
		hits, misses := c.Stats()
		if wantMiss := uint64(wantEvicted[k-1]); prev != nil && (misses != wantMiss || hits != uint64(len(keys))-wantMiss) {
			t.Fatalf("generation %d: %d hits / %d misses, want %d / %d", k, hits, misses, uint64(len(keys))-wantMiss, wantMiss)
		}
		prev = c
	}
}
