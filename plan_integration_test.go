package wwt_test

// Adaptive-planner integration tests: the planner-off path must stay
// bit-identical to the pre-planner pipeline for every inference
// algorithm, scheduling must only reorder dispatch (never outputs),
// probe-2 elision must never change a consolidated answer on the eval
// corpus, and deadline degradation must downgrade — deterministically —
// instead of failing.

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"wwt"
	"wwt/internal/core"
	"wwt/internal/corpusgen"
	"wwt/internal/extract"
	"wwt/internal/inference"
	"wwt/internal/plan"
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

// TestPlannerOffBitIdentical pins the planner-disabled path: with the
// zero PlannerOptions (every lever off), answers for the whole eval
// workload are bit-identical to solo references for all five inference
// algorithms, no lever ever fires, and calibration — which always runs —
// stays observability-only.
func TestPlannerOffBitIdentical(t *testing.T) {
	wqs, corpus := evalQueries(t)
	tables := corpus.ExtractAll(extract.NewOptions())
	for _, alg := range inference.Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			opts := wwt.DefaultOptions()
			opts.Algorithm = alg
			if (opts.Planner != wwt.PlannerOptions{}) {
				t.Fatal("default options must leave every planner lever off")
			}
			eng, err := wwt.NewEngine(tables, &opts)
			if err != nil {
				t.Fatal(err)
			}
			refs := make([]*wwt.Result, len(wqs))
			refErrs := make([]error, len(wqs))
			for i, q := range wqs {
				refs[i], refErrs[i] = eng.Answer(q)
			}
			// By now the estimator has observed every solo query; the
			// planner being calibrated must still change nothing.
			br := eng.AnswerBatchPlan(context.Background(), wqs, 4, time.Hour, wwt.BatchPlan{})
			for i := range wqs {
				if (br.Errs[i] == nil) != (refErrs[i] == nil) {
					t.Fatalf("member %d: batch err %v, solo err %v", i, br.Errs[i], refErrs[i])
				}
				if br.Errs[i] != nil {
					continue
				}
				if br.Results[i].Probe2Elided || br.Results[i].Degraded {
					t.Fatalf("member %d: lever fired with planner off: %+v", i, br.Results[i])
				}
				sameResult(t, "planner-off", i, br.Results[i], refs[i])
			}
			ps := eng.PlanStats()
			if ps.Probe2Elided != 0 || ps.Degraded != 0 {
				t.Fatalf("planner-off lever counters moved: %+v", ps)
			}
			if !ps.Calibrated {
				t.Fatal("estimator not calibrated after a full workload")
			}
			br.Release()
		})
	}
}

// TestAnswerBatchSchedulingEquivalence pins planner lever (c): under SJF
// and deadline scheduling — with a warm, calibrated estimator actually
// permuting dispatch — every member lands in its submission-order output
// slot bit-identical to its solo reference, with and without a per-member
// deadline, and per-member latencies are recorded.
func TestAnswerBatchSchedulingEquivalence(t *testing.T) {
	wqs, corpus := evalQueries(t)
	eng, err := wwt.NewEngine(corpus.ExtractAll(extract.NewOptions()), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Calibration warmup plus solo references in one pass.
	refs := make([]*wwt.Result, len(wqs))
	refErrs := make([]error, len(wqs))
	for i, q := range wqs {
		refs[i], refErrs[i] = eng.Answer(q)
	}
	if est := eng.EstimateCost(wqs[0]); est <= 0 {
		t.Fatalf("EstimateCost = %v after calibration, want > 0", est)
	}
	for _, sched := range []wwt.Schedule{wwt.ScheduleSJF, wwt.ScheduleDeadline} {
		for _, perQuery := range []time.Duration{0, time.Hour} {
			br := eng.AnswerBatchPlan(context.Background(), wqs, 4, perQuery,
				wwt.BatchPlan{Schedule: sched})
			tag := sched.String()
			if len(br.Latency) != len(wqs) {
				t.Fatalf("%s: Latency has %d entries, want %d", tag, len(br.Latency), len(wqs))
			}
			for i := range wqs {
				if (br.Errs[i] == nil) != (refErrs[i] == nil) {
					t.Fatalf("%s member %d: batch err %v, solo err %v", tag, i, br.Errs[i], refErrs[i])
				}
				if br.Latency[i] <= 0 {
					t.Fatalf("%s member %d: latency not recorded", tag, i)
				}
				if br.Errs[i] != nil {
					continue
				}
				sameResult(t, tag, i, br.Results[i], refs[i])
			}
			br.Release()
		}
	}
}

// TestPlannerElisionNoAnswerChange pins planner lever (a)'s two safety
// contracts on the eval corpus. At the default threshold — deliberately
// above the stage-1 softmax confidence ceiling — any query that elides
// must keep a bit-identical consolidated answer. At a lowered threshold,
// where elision actually fires, the weaker invariant holds: an elided
// answer never contains a row the full two-probe pipeline would not
// produce (elision can only drop rows contributed exclusively by
// second-probe tables, never invent them).
func TestPlannerElisionNoAnswerChange(t *testing.T) {
	wqs, corpus := evalQueries(t)
	tables := corpus.ExtractAll(extract.NewOptions())
	ref, err := wwt.NewEngine(tables, nil)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*wwt.Result, len(wqs))
	refErrs := make([]error, len(wqs))
	for i, q := range wqs {
		refs[i], refErrs[i] = ref.Answer(q)
	}

	// Default threshold: elision is answer-preserving wherever it fires.
	opts := wwt.DefaultOptions()
	opts.Planner.ElideProbe2 = true
	eng, err := wwt.NewEngine(tables, &opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range wqs {
		got, gotErr := eng.Answer(q)
		if (gotErr == nil) != (refErrs[i] == nil) {
			t.Fatalf("query %d: elision err %v, reference err %v", i, gotErr, refErrs[i])
		}
		if gotErr != nil {
			continue
		}
		if got.Probe2Elided {
			if !reflect.DeepEqual(got.Answer, refs[i].Answer) {
				t.Fatalf("query %d %v: default-threshold elision changed the answer", i, q.Columns)
			}
		} else {
			sameResult(t, "no-elision", i, got, refs[i])
		}
		got.Release()
	}

	// Lowered threshold: elision fires, is counted, and never invents rows.
	low := wwt.DefaultOptions()
	low.Planner.ElideProbe2 = true
	low.Planner.ElideConfidence = 0.9
	leng, err := wwt.NewEngine(tables, &low)
	if err != nil {
		t.Fatal(err)
	}
	elided := 0
	for i, q := range wqs {
		if refErrs[i] != nil {
			continue
		}
		got, gotErr := leng.Answer(q)
		if gotErr != nil {
			t.Fatalf("query %d: %v", i, gotErr)
		}
		if got.Probe2Elided {
			elided++
			refRows := make(map[string]bool, len(refs[i].Answer.Rows))
			for _, row := range refs[i].Answer.Rows {
				refRows[strings.Join(row.Cells, "\x00")] = true
			}
			for _, row := range got.Answer.Rows {
				if !refRows[strings.Join(row.Cells, "\x00")] {
					t.Fatalf("query %d %v: elided answer invented row %v", i, q.Columns, row.Cells)
				}
			}
		}
		got.Release()
	}
	if elided == 0 {
		t.Fatal("probe-2 elision never fired at the lowered threshold")
	}
	if ps := leng.PlanStats(); ps.Probe2Elided != uint64(elided) {
		t.Fatalf("PlanStats.Probe2Elided = %d, want %d", ps.Probe2Elided, elided)
	}
}

// TestDeadlineDegradation pins planner lever (b): with the estimator
// seeded so any deadline looks unmeetable, a query degrades — downgraded
// inference, capped candidates — instead of returning DeadlineExceeded,
// and the degraded answer is bit-identical to the downgraded algorithm
// run directly.
func TestDeadlineDegradation(t *testing.T) {
	wqs, corpus := evalQueries(t)
	tables := corpus.ExtractAll(extract.NewOptions())

	opts := wwt.DefaultOptions()
	opts.Planner.DeadlineDegrade = true
	opts.Planner.DegradeMaxTables = 1 << 30 // no capping: isolate the algorithm downgrade
	eng, err := wwt.NewEngine(tables, &opts)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the estimator so the tail estimate dwarfs any realistic
	// deadline: one synthetic observation of an hour per stage per unit.
	eng.Planner().Observe(plan.Sample{
		Postings: 1, Tables1: 1, Tables: 1, Alg: int(opts.Algorithm), Probe2Ran: true,
		Probe1: time.Hour, Read1: time.Hour, Probe2: time.Hour, Read2: time.Hour,
		Build: time.Hour, Infer: time.Hour, Cons: time.Hour,
	})

	downOpts := wwt.DefaultOptions()
	downOpts.Algorithm = inference.Degrade(opts.Algorithm)
	down, err := wwt.NewEngine(tables, &downOpts)
	if err != nil {
		t.Fatal(err)
	}

	degraded := 0
	for i, q := range wqs {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		res, resErr := eng.AnswerCtx(ctx, q)
		cancel()
		want, refErr := down.Answer(q)
		if (resErr == nil) != (refErr == nil) {
			t.Fatalf("query %d: degraded err %v, reference err %v", i, resErr, refErr)
		}
		if resErr != nil {
			continue
		}
		if !res.Degraded {
			// A query with no candidate tables has a zero tail estimate —
			// nothing to degrade — and that is correct, not a lever failure.
			if len(res.Tables) > 0 {
				t.Fatalf("query %d: not degraded under an unmeetable estimate", i)
			}
			res.Release()
			want.Release()
			continue
		}
		degraded++
		if !reflect.DeepEqual(res.Labeling.Y, want.Labeling.Y) {
			t.Fatalf("query %d: degraded labeling != %v solo labeling", i, downOpts.Algorithm)
		}
		if !reflect.DeepEqual(res.Answer, want.Answer) {
			t.Fatalf("query %d: degraded answer != %v solo answer", i, downOpts.Algorithm)
		}
		res.Release()
		want.Release()
	}
	if degraded == 0 {
		t.Fatal("no query degraded")
	}
	if ps := eng.PlanStats(); ps.Degraded != uint64(degraded) {
		t.Fatalf("PlanStats.Degraded = %d, want %d", ps.Degraded, degraded)
	}
}

// TestDeadlineDegradationTruncatesModel pins the degrade cap below the
// first-probe tables the second probe already built per-table state for:
// the capped model is truncated in place, and must be bit-identical —
// nodes, stage-1 state, edges — to a fresh build over the kept tables.
func TestDeadlineDegradationTruncatesModel(t *testing.T) {
	wqs, corpus := evalQueries(t)
	opts := wwt.DefaultOptions()
	opts.Planner.DeadlineDegrade = true
	opts.Planner.DegradeMaxTables = 2
	eng, err := wwt.NewEngine(corpus.ExtractAll(extract.NewOptions()), &opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.Planner().Observe(plan.Sample{
		Postings: 1, Tables1: 1, Tables: 1, Alg: int(opts.Algorithm), Probe2Ran: true,
		Probe1: time.Hour, Read1: time.Hour, Probe2: time.Hour, Read2: time.Hour,
		Build: time.Hour, Infer: time.Hour, Cons: time.Hour,
	})
	capped := 0
	for i, q := range wqs {
		cands, _, err := eng.Candidates(q, nil)
		if err != nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		res, err := eng.AnswerCtx(ctx, q)
		cancel()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res.Degraded && len(cands) > len(res.Tables) {
			capped++
			b := &core.Builder{Params: opts.Params, Stats: eng.Searcher()}
			want := b.Build(q.Columns, res.Tables)
			if !reflect.DeepEqual(res.Model.Node, want.Node) || !reflect.DeepEqual(res.Model.Rel, want.Rel) ||
				!reflect.DeepEqual(res.Model.Dist, want.Dist) || !reflect.DeepEqual(res.Model.Conf, want.Conf) ||
				!reflect.DeepEqual(res.Model.Edges, want.Edges) {
				t.Fatalf("query %d: truncated model != fresh build over the %d kept tables", i, len(res.Tables))
			}
		}
		res.Release()
	}
	if capped == 0 {
		t.Fatal("no degraded query was capped below its built tables")
	}
}
