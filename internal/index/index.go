package index

import (
	"fmt"
	"slices"

	"wwt/internal/text"
	"wwt/internal/wtable"
)

// Field identifies one of the three indexed fields.
type Field int

// The three fields of a table document.
const (
	FieldHeader Field = iota
	FieldContext
	FieldContent
	numFields
)

// Boosts are the per-field match boosts from §2.1: header 2, context 1.5,
// content 1.
var Boosts = [numFields]float64{2.0, 1.5, 1.0}

// String names the field.
func (f Field) String() string {
	switch f {
	case FieldHeader:
		return "header"
	case FieldContext:
		return "context"
	case FieldContent:
		return "content"
	}
	return fmt.Sprintf("field(%d)", int(f))
}

// posting is one (document, term-frequency) pair of the build-time index.
type posting struct {
	Doc int32
	TF  float32
}

// Index is the mutable build-time inverted index over table documents.
// It is not queried directly: NewSearcher freezes it into the query-time
// form.
type Index struct {
	ids      []string
	byID     map[string]int32
	postings [numFields]map[string][]posting
	fieldLen [numFields][]float32 // per-doc analyzed token counts
	df       map[string]int       // union document frequency (any field)
}

// New returns an empty index.
func New() *Index {
	ix := &Index{
		byID: make(map[string]int32),
		df:   make(map[string]int),
	}
	for f := range ix.postings {
		ix.postings[f] = make(map[string][]posting)
	}
	return ix
}

// FieldTokens analyzes one table into its three field token bags. This is
// the single point deciding what text lands in which field: titles and page
// titles join the context field; header rows form the header field; body
// cells form the content field.
func FieldTokens(t *wtable.Table) [numFields][]string {
	var out [numFields][]string
	for _, r := range t.HeaderRows {
		for _, c := range r.Cells {
			out[FieldHeader] = append(out[FieldHeader], text.Normalize(c.Text)...)
		}
	}
	ctx := t.TitleText() + " " + t.PageTitle
	out[FieldContext] = append(out[FieldContext], text.Normalize(ctx)...)
	for _, s := range t.Context {
		out[FieldContext] = append(out[FieldContext], text.Normalize(s.Text)...)
	}
	for _, r := range t.BodyRows {
		for _, c := range r.Cells {
			out[FieldContent] = append(out[FieldContent], text.Normalize(c.Text)...)
		}
	}
	return out
}

// Add indexes one table. A nil table, an empty ID or a duplicate ID is an
// error.
func (ix *Index) Add(t *wtable.Table) error {
	if t == nil || t.ID == "" {
		return fmt.Errorf("index: table without ID")
	}
	if _, dup := ix.byID[t.ID]; dup {
		return fmt.Errorf("index: duplicate table ID %q", t.ID)
	}
	doc := int32(len(ix.ids))
	ix.ids = append(ix.ids, t.ID)
	ix.byID[t.ID] = doc

	fields := FieldTokens(t)
	seenAnywhere := make(map[string]bool)
	for f := 0; f < int(numFields); f++ {
		tf := make(map[string]int)
		for _, tok := range fields[f] {
			tf[tok]++
			seenAnywhere[tok] = true
		}
		ix.fieldLen[f] = append(ix.fieldLen[f], float32(len(fields[f])))
		for tok, n := range tf {
			ix.postings[f][tok] = append(ix.postings[f][tok], posting{Doc: doc, TF: float32(n)})
		}
	}
	for tok := range seenAnywhere {
		ix.df[tok]++
	}
	return nil
}

// Build constructs an index over tables, numbering documents in slice
// order; it fails on a nil table, an empty ID or a duplicate ID.
func Build(tables []*wtable.Table) (*Index, error) {
	ix := New()
	for _, t := range tables {
		if err := ix.Add(t); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int { return len(ix.ids) }

// Hit is one search result: the table's ID and its global doc number —
// its position in the tables the searcher was built or opened over.
type Hit struct {
	ID    string
	Doc   int32
	Score float64
}

// betterHit is the hit ordering: higher score first, ties by table ID.
func betterHit(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// cmpHits is betterHit as a three-way comparison for slices.SortFunc —
// the generic sorter skips the reflection swapper sort.Slice pays per call,
// which matters at one hit sort per probe.
func cmpHits(a, b Hit) int {
	switch {
	case betterHit(a, b):
		return -1
	case betterHit(b, a):
		return 1
	}
	return 0
}

// topKSelect partially selects the k best elements of items using an
// in-place worst-first min-heap over items[:k], and returns that prefix in
// heap (not sorted) order. worse must be a strict total order ranking a
// strictly below b. items may be reordered; k >= len(items) returns items
// unchanged.
func topKSelect[T any](items []T, k int, worse func(a, b T) bool) []T {
	if k >= len(items) {
		return items
	}
	h := items[:k]
	for i := 1; i < len(h); i++ {
		for j := i; j > 0; {
			p := (j - 1) / 2
			if worse(h[p], h[j]) {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
	}
	for _, c := range items[k:] {
		if worse(c, h[0]) {
			continue
		}
		h[0] = c
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && worse(h[l], h[m]) {
				m = l
			}
			if r < len(h) && worse(h[r], h[m]) {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	return h
}

// worseHit ranks a strictly below b (topKSelect's order for hits).
func worseHit(a, b Hit) bool { return betterHit(b, a) }

// selectTopHits returns a freshly allocated, sorted slice of the top k
// candidates (all of them when k <= 0), partially selecting instead of
// sorting everything when k is small. cands may be reordered.
func selectTopHits(cands []Hit, k int) []Hit {
	sel := cands
	if k > 0 {
		sel = topKSelect(cands, k, worseHit)
	}
	out := make([]Hit, len(sel))
	copy(out, sel)
	slices.SortFunc(out, cmpHits)
	return out
}

func intersectSorted(a, b []int32) []int32 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func dedup(toks []string) []string {
	seen := make(map[string]bool, len(toks))
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
