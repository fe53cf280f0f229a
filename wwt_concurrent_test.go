package wwt_test

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"wwt"
	"wwt/internal/index"
	"wwt/internal/text"
)

// TestAnswerConcurrent exercises the full pipeline from many goroutines at
// once (run under -race): the frozen searcher, which also serves PMI's doc
// sets, and the shared view cache with its interner must be safe to share,
// and every goroutine must see identical results for identical queries.
func TestAnswerConcurrent(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []wwt.Query{
		{Columns: []string{"country", "currency"}},
		{Columns: []string{"name", "area"}},
		{Columns: []string{"currency"}},
	}
	// Reference results, computed serially.
	type outcome struct {
		rows     [][]string
		labeling [][]int
	}
	want := make([]outcome, len(queries))
	for i, q := range queries {
		res, err := eng.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Answer.Rows {
			want[i].rows = append(want[i].rows, row.Cells)
		}
		want[i].labeling = res.Labeling.Y
		res.Release() // rows/labeling stay valid after Release; only the arena returns
	}

	const goroutines = 8
	const rounds = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (g + r) % len(queries)
				res, err := eng.Answer(queries[qi])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				var rows [][]string
				for _, row := range res.Answer.Rows {
					rows = append(rows, row.Cells)
				}
				if !reflect.DeepEqual(rows, want[qi].rows) {
					t.Errorf("goroutine %d query %d: rows diverged", g, qi)
					return
				}
				if !reflect.DeepEqual(res.Labeling.Y, want[qi].labeling) {
					t.Errorf("goroutine %d query %d: labeling diverged", g, qi)
					return
				}
				res.Release()
			}
		}(g)
	}
	wg.Wait()
}

// TestAnswerConcurrentEdges hammers the edge construction (run under
// -race): the queries share candidate tables, so many goroutines compute
// the same table pairs at once — each in its own build arena, over views
// shared through the view cache — and every goroutine must still see the
// exact same model edges.
func TestAnswerConcurrentEdges(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping two-column queries over the same currency tables: every
	// query's candidate set shares table pairs with the others.
	queries := []wwt.Query{
		{Columns: []string{"country", "currency"}},
		{Columns: []string{"currency", "country"}},
		{Columns: []string{"country"}},
		{Columns: []string{"currency"}},
		{Columns: []string{"name", "area"}},
	}
	ref := make([]*wwt.Result, len(queries))
	for i, q := range queries {
		res, err := eng.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = res
	}

	const goroutines = 16
	const rounds = 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (g*7 + r) % len(queries)
				res, err := eng.Answer(queries[qi])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !reflect.DeepEqual(res.Model.Edges, ref[qi].Model.Edges) {
					t.Errorf("goroutine %d query %d: model edges diverged", g, qi)
					return
				}
				if !reflect.DeepEqual(res.Labeling.Y, ref[qi].Labeling.Y) {
					t.Errorf("goroutine %d query %d: labeling diverged", g, qi)
					return
				}
				res.Release() // after the Model.Edges check: Release nils Model
			}
		}(g)
	}
	wg.Wait()
}

// TestAnswerScratchPoolConcurrent hammers the engine's scratch-arena pool
// (run under -race): 16 goroutines answer overlapping queries, each
// releasing its arena back to the shared pool, so arenas are constantly
// recycled between goroutines mid-flight. Every result must be identical
// to the serial fresh-scratch reference run (whose arenas are deliberately
// never released, so the references cannot alias the pool).
func TestAnswerScratchPoolConcurrent(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []wwt.Query{
		{Columns: []string{"country", "currency"}},
		{Columns: []string{"currency", "country"}},
		{Columns: []string{"country"}},
		{Columns: []string{"name", "area"}},
	}
	// Serial fresh-scratch references: retained (not Released), so they own
	// their arenas for the test's lifetime.
	ref := make([]*wwt.Result, len(queries))
	for i, q := range queries {
		res, err := eng.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = res
	}

	const goroutines = 16
	const rounds = 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (g*5 + r) % len(queries)
				res, err := eng.Answer(queries[qi])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				ok := reflect.DeepEqual(res.Labeling.Y, ref[qi].Labeling.Y) &&
					reflect.DeepEqual(res.Model.Edges, ref[qi].Model.Edges) &&
					reflect.DeepEqual(res.Answer, ref[qi].Answer)
				res.Release()
				if !ok {
					t.Errorf("goroutine %d query %d: pooled result diverged from fresh reference", g, qi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAnswerWarmPoolAllocs guards the scratch-pool win: a warm-pool Answer
// + Release cycle must stay under a fixed allocation ceiling, so later
// changes can't silently reintroduce per-query grid churn. The ceiling is
// loose (inherent per-query allocations: result payload, hits, labeling,
// query-token normalization) but far below the thousands of allocations
// the unpooled build used to make. Probe 2 takes its sampled cells'
// tokens from the views' interned keys, which costs no allocation.
func TestAnswerWarmPoolAllocs(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	q := wwt.Query{Columns: []string{"country", "currency"}}
	// Warm every cache and the arena pool.
	for i := 0; i < 3; i++ {
		res, err := eng.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	allocs := testing.AllocsPerRun(50, func() {
		res, err := eng.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	})
	// Measured 40 warm (one model build per query, consolidation reading
	// the views' interned cells, the freshly allocated answer) and 70–87
	// under -race, whose sync.Pool randomly drops arenas; ~30% headroom
	// over the race count.
	const ceiling = 115
	if allocs > ceiling {
		t.Errorf("warm-pool Answer allocates %.0f/op, ceiling %d", allocs, ceiling)
	}
}

// TestEngineProbeMatchesMapScorer pins the engine's probe to a reference
// map-based scorer at the API level — the §2.1 score spelled out from the
// definition over the exported field analysis, boosts and corpus IDF:
// same hits, same order, same scores.
func TestEngineProbeMatchesMapScorer(t *testing.T) {
	tables := smallCorpus(t)
	eng, err := wwt.NewEngine(tables, nil)
	if err != nil {
		t.Fatal(err)
	}
	mapSearch := func(tokens []string, k int) []index.Hit {
		scores := map[string]float64{}
		seen := map[string]bool{}
		for _, tok := range tokens {
			if seen[tok] {
				continue
			}
			seen[tok] = true
			idf := eng.Searcher().IDF(tok)
			for _, tb := range tables {
				for f, toks := range index.FieldTokens(tb) {
					tf := 0
					for _, w := range toks {
						if w == tok {
							tf++
						}
					}
					if tf > 0 {
						// float32 is the index's documented storage precision.
						w := float32(index.Boosts[f] * (1 + math.Log(float64(tf))) / math.Sqrt(float64(len(toks))))
						scores[tb.ID] += idf * float64(w)
					}
				}
			}
		}
		hits := make([]index.Hit, 0, len(scores))
		for id, s := range scores {
			hits = append(hits, index.Hit{ID: id, Score: s})
		}
		slices.SortFunc(hits, func(a, b index.Hit) int {
			if a.Score != b.Score {
				return cmp.Compare(b.Score, a.Score)
			}
			return cmp.Compare(a.ID, b.ID)
		})
		if k > 0 && len(hits) > k {
			hits = hits[:k]
		}
		return hits
	}
	for _, cols := range [][]string{
		{"country", "currency"},
		{"name", "area"},
		{"forest reserves"},
	} {
		var tokens []string
		for _, c := range cols {
			tokens = append(tokens, text.Normalize(c)...)
		}
		for _, k := range []int{0, 1, 2, 40} {
			want := mapSearch(tokens, k)
			got := eng.Searcher().Search(tokens, k)
			if len(want) != len(got) {
				t.Fatalf("cols %v k=%d: %d hits, want %d", cols, k, len(got), len(want))
			}
			for i := range want {
				if want[i].ID != got[i].ID || math.Abs(want[i].Score-got[i].Score) > 1e-9 {
					t.Fatalf("cols %v k=%d hit %d: got %+v, want %+v", cols, k, i, got[i], want[i])
				}
			}
		}
	}
}
