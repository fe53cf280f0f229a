package wwt_test

// Cost-model integration test: calibrating the estimator on a full eval
// workload must leave every answer bit-identical under the table-centric
// solve the engine serves.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"wwt"
	"wwt/internal/corpusgen"
	"wwt/internal/extract"
	"wwt/internal/inference"
	"wwt/internal/workload"
)

// evalQueries builds the deterministic evaluation corpus and its query
// workload.
func evalQueries(t *testing.T) ([]wwt.Query, *corpusgen.Corpus) {
	t.Helper()
	corpus := corpusgen.Generate(corpusgen.Config{Seed: 2012, Scale: 0.25})
	queries := workload.FromCorpus(corpus)
	if len(queries) == 0 {
		t.Fatal("no workload queries")
	}
	wqs := make([]wwt.Query, len(queries))
	for i, q := range queries {
		wqs[i] = wwt.Query{Columns: q.Columns}
	}
	return wqs, corpus
}

// sameResult fails the test unless two member results are bit-identical
// in everything a caller can observe.
func sameResult(t *testing.T, tag string, i int, got, want *wwt.Result) {
	t.Helper()
	if got.UsedProbe2 != want.UsedProbe2 {
		t.Fatalf("%s member %d: UsedProbe2 %v != %v", tag, i, got.UsedProbe2, want.UsedProbe2)
	}
	if len(got.Tables) != len(want.Tables) {
		t.Fatalf("%s member %d: %d tables != %d", tag, i, len(got.Tables), len(want.Tables))
	}
	for ti := range got.Tables {
		if got.Tables[ti].ID != want.Tables[ti].ID {
			t.Fatalf("%s member %d: table %d = %s, want %s", tag, i, ti, got.Tables[ti].ID, want.Tables[ti].ID)
		}
	}
	if !reflect.DeepEqual(got.Labeling.Y, want.Labeling.Y) {
		t.Fatalf("%s member %d: labeling diverged", tag, i)
	}
	if !reflect.DeepEqual(got.Model.Edges, want.Model.Edges) {
		t.Fatalf("%s member %d: model edges diverged", tag, i)
	}
	if !reflect.DeepEqual(got.Model.Node, want.Model.Node) {
		t.Fatalf("%s member %d: node potentials diverged", tag, i)
	}
	if !reflect.DeepEqual(got.Answer, want.Answer) {
		t.Fatalf("%s member %d: consolidated answer diverged", tag, i)
	}
}

// TestCalibrationLeavesAnswersUnchanged pins the cost model as a gauge:
// after a full eval workload of solo answers the estimator is calibrated,
// and a batch answered on that calibrated engine is bit-identical, member
// by member, to the solo references.
func TestCalibrationLeavesAnswersUnchanged(t *testing.T) {
	wqs, corpus := evalQueries(t)
	tables := corpus.ExtractAll(extract.NewOptions())
	// The engine serves the paper's table-centric solve (§4.2).
	t.Run(inference.TableCentric.String(), func(t *testing.T) {
		eng, err := wwt.NewEngine(tables, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]*wwt.Result, len(wqs))
		refErrs := make([]error, len(wqs))
		for i, q := range wqs {
			refs[i], refErrs[i] = eng.Answer(q)
		}
		if !eng.PlanStats().Calibrated {
			t.Fatal("estimator not calibrated after a full workload")
		}
		br := eng.AnswerBatchCtx(context.Background(), wqs, 4, time.Hour)
		for i := range wqs {
			if (br.Errs[i] == nil) != (refErrs[i] == nil) {
				t.Fatalf("member %d: batch err %v, solo err %v", i, br.Errs[i], refErrs[i])
			}
			if br.Errs[i] != nil {
				continue
			}
			sameResult(t, "calibrated", i, br.Results[i], refs[i])
		}
		br.Release()
	})
}
