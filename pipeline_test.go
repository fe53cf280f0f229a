package wwt

// Internal pipeline tests: warm-arena answers must be bit-identical to
// fresh-arena answers, and a Result must own its storage. These run in
// package wwt (not wwt_test) so they can drive the pipeline with
// hand-built scratches.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"wwt/internal/consolidate"
	"wwt/internal/corpusgen"
	"wwt/internal/extract"
	"wwt/internal/inference"
	"wwt/internal/workload"
)

// TestAnswerScratchEquivalence answers the evaluation workload (the query
// set behind Table 1 / Fig. 5 / Fig. 7) three times per query on one
// engine — on a caller-owned arena dirty from every earlier query, on a
// virgin arena, and through the warm engine pool — and demands
// bit-identical results: labeling, answer rows and their ranking, and,
// for the two arenas whose model the test can read, the model's edges,
// node potentials and stage-1 state.
func TestAnswerScratchEquivalence(t *testing.T) {
	corpus := corpusgen.Generate(corpusgen.Config{Seed: 2012, Scale: 0.25})
	tables := corpus.ExtractAll(extract.NewOptions())
	queries := workload.FromCorpus(corpus)
	if len(queries) == 0 {
		t.Fatal("no workload queries")
	}
	// The engine serves the paper's table-centric solve (§4.2).
	t.Run(inference.TableCentric.String(), func(t *testing.T) {
		eng, err := NewEngine(tables, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Dirty the pool and the caller's arena: every query leaves its
		// footprint, so the comparison runs see thoroughly stale buffers.
		dirty := &QueryScratch{}
		for _, q := range queries {
			eng.Answer(Query{Columns: q.Columns})
			AnswerWithModel(eng, Query{Columns: q.Columns}, dirty)
		}
		for _, q := range queries {
			wq := Query{Columns: q.Columns}
			warm, warmModel, errW := AnswerWithModel(eng, wq, dirty)
			fresh, freshModel, errF := AnswerWithModel(eng, wq, &QueryScratch{})
			pooled, errP := eng.Answer(wq)
			if (errW == nil) != (errF == nil) || (errP == nil) != (errF == nil) {
				t.Fatalf("%v: warm err %v, fresh err %v, pooled err %v", q.Columns, errW, errF, errP)
			}
			if errF != nil {
				continue
			}
			for _, got := range []struct {
				name string
				res  *Result
			}{{"warm", warm}, {"pooled", pooled}} {
				if got.res.UsedProbe2 != fresh.UsedProbe2 {
					t.Fatalf("%v: %s UsedProbe2 %v != %v", q.Columns, got.name, got.res.UsedProbe2, fresh.UsedProbe2)
				}
				if len(got.res.Tables) != len(fresh.Tables) {
					t.Fatalf("%v: %s %d tables != %d", q.Columns, got.name, len(got.res.Tables), len(fresh.Tables))
				}
				for i := range got.res.Tables {
					if got.res.Tables[i].ID != fresh.Tables[i].ID {
						t.Fatalf("%v: %s table %d = %s, want %s", q.Columns, got.name, i, got.res.Tables[i].ID, fresh.Tables[i].ID)
					}
				}
				if !reflect.DeepEqual(got.res.Labeling.Y, fresh.Labeling.Y) {
					t.Fatalf("%v: %s labeling diverged", q.Columns, got.name)
				}
				// Answer rows, including ranking, support, sources, scores.
				if !reflect.DeepEqual(got.res.Answer, fresh.Answer) {
					t.Fatalf("%v: %s consolidated answer diverged", q.Columns, got.name)
				}
			}
			if !reflect.DeepEqual(warmModel.Edges, freshModel.Edges) {
				t.Fatalf("%v: edges diverged", q.Columns)
			}
			if !reflect.DeepEqual(warmModel.Node, freshModel.Node) {
				t.Fatalf("%v: node potentials diverged", q.Columns)
			}
			if !reflect.DeepEqual(warmModel.Dist, freshModel.Dist) ||
				!reflect.DeepEqual(warmModel.Conf, freshModel.Conf) ||
				!reflect.DeepEqual(warmModel.Rel, freshModel.Rel) {
				t.Fatalf("%v: stage-1 state diverged", q.Columns)
			}
		}
	})
}

// TestResultOwnsItsStorage: a Result holds nothing of the arena that
// answered it. One query is answered on a warm caller-owned arena and its
// answer, labeling, candidates and probe-2 flag are deep-copied; several
// other Table-1 queries then run on the same arena, and the first Result
// must be unchanged.
func TestResultOwnsItsStorage(t *testing.T) {
	corpus := corpusgen.Generate(corpusgen.Config{Seed: 2012, Scale: 0.25})
	queries := workload.FromCorpus(corpus)
	eng, err := NewEngine(corpus.ExtractAll(extract.NewOptions()), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &QueryScratch{}
	// Warm the arena on the whole workload first: its buffers then have
	// room for any query, so nothing a query writes into them moves out
	// to the heap on its own.
	for _, q := range queries {
		AnswerWithModel(eng, Query{Columns: q.Columns}, s)
	}
	// The first query that produces answer rows.
	var res *Result
	first := 0
	for ; first < len(queries); first++ {
		r, _, err := AnswerWithModel(eng, Query{Columns: queries[first].Columns}, s)
		if err == nil && len(r.Answer.Rows) > 0 {
			res = r
			break
		}
	}
	if res == nil {
		t.Fatal("no workload query produced rows")
	}
	answer := &consolidate.Answer{
		NumCols: res.Answer.NumCols,
		Sources: slices.Clone(res.Answer.Sources),
		Rows:    make([]consolidate.Row, len(res.Answer.Rows)),
	}
	for i, r := range res.Answer.Rows {
		answer.Rows[i] = r
		answer.Rows[i].Cells = slices.Clone(r.Cells)
		answer.Rows[i].Sources = slices.Clone(r.Sources)
	}
	labeling := res.Labeling.Clone()
	tables := slices.Clone(res.Tables)
	usedProbe2 := res.UsedProbe2

	// Overwrite the arena with other queries, probe 2 and all.
	others := 0
	for _, q := range queries[first+1:] {
		if _, _, err := AnswerWithModel(eng, Query{Columns: q.Columns}, s); err == nil {
			others++
		}
		if others == 8 {
			break
		}
	}
	if others == 0 {
		t.Fatal("no other workload query ran on the arena")
	}
	if !reflect.DeepEqual(res.Answer, answer) {
		t.Error("answer changed when its arena answered other queries")
	}
	if !reflect.DeepEqual(res.Labeling, labeling) {
		t.Error("labeling changed when its arena answered other queries")
	}
	if !slices.Equal(res.Tables, tables) {
		t.Error("candidate tables changed when their arena answered other queries")
	}
	if res.UsedProbe2 != usedProbe2 {
		t.Error("UsedProbe2 changed when its arena answered other queries")
	}
}

// TestPanickedArenaNeverPooled: a query that panics mid-pipeline leaves
// its arena half-written, so neither a solo Answer nor a batch worker may
// put it back into the pool. On an engine with no tables, Read1 panics
// right after Probe1 filled the arena's token buffer; every arena the
// pool holds afterwards must still be virgin.
func TestPanickedArenaNeverPooled(t *testing.T) {
	corpus := corpusgen.Generate(corpusgen.Config{Seed: 7, Scale: 0.1})
	eng, err := NewEngine(corpus.ExtractAll(extract.NewOptions()), nil)
	if err != nil {
		t.Fatal(err)
	}
	broken := WithoutTables(eng)
	q := Query{Columns: []string{"country", "currency"}}
	// One P: a sync.Pool Get sees only its own P's private slot, so on one
	// P every arena a worker put back is visible to the drain below.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// assertPoolVirgin drains the pool and fails on any arena a query has
	// written.
	assertPoolVirgin := func(after string) {
		t.Helper()
		for {
			s, _ := broken.scratch.Get().(*QueryScratch)
			if s == nil {
				return
			}
			if s.tokens != nil {
				t.Fatalf("after %s, a panicked query's arena was back in the pool", after)
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Answer on an engine without tables did not panic")
			}
		}()
		broken.Answer(q)
	}()
	assertPoolVirgin("a solo Answer")
	br := broken.AnswerBatchCtx(context.Background(), []Query{q, q, q}, 2, 0)
	for i, err := range br.Errs {
		if !errors.Is(err, ErrPanic) {
			t.Fatalf("member %d: err = %v, want a recovered panic", i, err)
		}
	}
	assertPoolVirgin("a batch")
}
