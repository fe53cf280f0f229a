package wwt

// Internal pipeline tests: pooled-arena answers must be bit-identical to
// fresh-arena answers. These run in package wwt (not wwt_test) so they can
// drive the pipeline with hand-built scratches.

import (
	"context"
	"reflect"
	"testing"

	"wwt/internal/consolidate"
	"wwt/internal/corpusgen"
	"wwt/internal/extract"
	"wwt/internal/inference"
	"wwt/internal/workload"
)

// TestAnswerScratchEquivalence answers the evaluation workload (the query
// set behind Table 1 / Fig. 5 / Fig. 7) twice per query on one engine —
// once through the warm engine pool (arena dirty from every earlier
// query), once with a virgin arena — and demands bit-identical results:
// labeling, model edges, node potentials, stage-1 state, answer rows and
// their ranking.
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
		// Dirty the pool: every query leaves its footprint in some arena, so
		// the comparison runs see thoroughly stale buffers.
		for _, q := range queries {
			if res, err := eng.Answer(Query{Columns: q.Columns}); err == nil {
				res.Release()
			}
		}
		for _, q := range queries {
			wq := Query{Columns: q.Columns}
			pooled, errP := eng.Answer(wq)
			fresh, errF := eng.answer(context.Background(), wq, &QueryScratch{})
			if (errP == nil) != (errF == nil) {
				t.Fatalf("%v: pooled err %v, fresh err %v", q.Columns, errP, errF)
			}
			if errP != nil {
				continue
			}
			if pooled.UsedProbe2 != fresh.UsedProbe2 {
				t.Fatalf("%v: UsedProbe2 %v != %v", q.Columns, pooled.UsedProbe2, fresh.UsedProbe2)
			}
			if len(pooled.Tables) != len(fresh.Tables) {
				t.Fatalf("%v: %d tables != %d", q.Columns, len(pooled.Tables), len(fresh.Tables))
			}
			for i := range pooled.Tables {
				if pooled.Tables[i].ID != fresh.Tables[i].ID {
					t.Fatalf("%v: table %d = %s, want %s", q.Columns, i, pooled.Tables[i].ID, fresh.Tables[i].ID)
				}
			}
			if !reflect.DeepEqual(pooled.Labeling.Y, fresh.Labeling.Y) {
				t.Fatalf("%v: labeling diverged", q.Columns)
			}
			if !reflect.DeepEqual(pooled.Model.Edges, fresh.Model.Edges) {
				t.Fatalf("%v: edges diverged", q.Columns)
			}
			if !reflect.DeepEqual(pooled.Model.Node, fresh.Model.Node) {
				t.Fatalf("%v: node potentials diverged", q.Columns)
			}
			if !reflect.DeepEqual(pooled.Model.Dist, fresh.Model.Dist) ||
				!reflect.DeepEqual(pooled.Model.Conf, fresh.Model.Conf) ||
				!reflect.DeepEqual(pooled.Model.Rel, fresh.Model.Rel) {
				t.Fatalf("%v: stage-1 state diverged", q.Columns)
			}
			// Answer rows, including ranking, support, sources, scores.
			if !reflect.DeepEqual(pooled.Answer, fresh.Answer) {
				t.Fatalf("%v: consolidated answer diverged", q.Columns)
			}
			pooled.Release()
		}
	})
}

// TestResultReleaseIdempotent: double Release must be a no-op, and Release
// must not invalidate the answer payload (rows, labeling, tables).
func TestResultReleaseIdempotent(t *testing.T) {
	corpus := corpusgen.Generate(corpusgen.Config{Seed: 7, Scale: 0.1})
	tables := corpus.ExtractAll(extract.NewOptions())
	queries := workload.FromCorpus(corpus)
	if len(queries) == 0 {
		t.Skip("no workload queries at this scale")
	}
	eng, err := NewEngine(tables, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Use a query that actually produces answer rows.
	var res *Result
	for _, q := range queries {
		r, err := eng.Answer(Query{Columns: q.Columns})
		if err != nil {
			continue
		}
		if len(r.Answer.Rows) > 0 {
			res = r
			break
		}
		r.Release()
	}
	if res == nil {
		t.Skip("no workload query produced rows at this scale")
	}
	// Independent deep copy of the payload, to detect any later corruption
	// of the retained result.
	rows := make([]consolidate.Row, len(res.Answer.Rows))
	for i, r := range res.Answer.Rows {
		rows[i] = r
		rows[i].Cells = append([]string(nil), r.Cells...)
		rows[i].Sources = append([]string(nil), r.Sources...)
	}
	labeling := res.Labeling.Clone()
	res.Release()
	if res.Model != nil || res.scratch != nil {
		t.Error("Release must nil the scratch-backed model and arena")
	}
	res.Release() // must not panic or double-free
	// Overwrite the recycled arena with a different query...
	if res2, err := eng.Answer(Query{Columns: queries[len(queries)-1].Columns}); err == nil {
		defer res2.Release()
	}
	// ...and the released result's payload must be untouched.
	if len(res.Answer.Rows) != len(rows) {
		t.Fatalf("row count changed after Release + reuse: %d, want %d", len(res.Answer.Rows), len(rows))
	}
	for i := range rows {
		if !reflect.DeepEqual(res.Answer.Rows[i], rows[i]) {
			t.Errorf("row %d corrupted after Release + reuse:\n got %+v\nwant %+v", i, res.Answer.Rows[i], rows[i])
		}
	}
	if !reflect.DeepEqual(res.Labeling.Y, labeling.Y) {
		t.Error("labeling corrupted after Release + reuse")
	}
}
