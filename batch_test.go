package wwt_test

// Batched-execution tests: every AnswerBatchCtx member must be bit-identical
// to a solo Answer of the same query, batches must be safe under -race
// with arenas recycling between workers, and a failing (or panicking)
// member must be isolated to its own slot.

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wwt"
	"wwt/internal/corpusgen"
	"wwt/internal/extract"
	"wwt/internal/inference"
	"wwt/internal/workload"
)

// TestAnswerBatchEquivalence answers the evaluation workload solo and then
// as one batch, and demands bit-identical results for every member:
// labeling, candidate tables, probe2 usage, and the consolidated answer
// rows with their ranking.
func TestAnswerBatchEquivalence(t *testing.T) {
	corpus := corpusgen.Generate(corpusgen.Config{Seed: 2012, Scale: 0.25})
	tables := corpus.ExtractAll(extract.NewOptions())
	queries := workload.FromCorpus(corpus)
	if len(queries) == 0 {
		t.Fatal("no workload queries")
	}
	wqs := make([]wwt.Query, len(queries))
	for i, q := range queries {
		wqs[i] = wwt.Query{Columns: q.Columns}
	}
	// The engine serves the paper's table-centric solve (§4.2).
	t.Run(inference.TableCentric.String(), func(t *testing.T) {
		eng, err := wwt.NewEngine(tables, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Solo references, serially.
		refs := make([]*wwt.Result, len(wqs))
		refErrs := make([]error, len(wqs))
		for i, q := range wqs {
			refs[i], refErrs[i] = eng.Answer(q)
		}

		br := eng.AnswerBatchCtx(context.Background(), wqs, 4, 0)
		if br.Timings.Queries != len(wqs) {
			t.Fatalf("Timings.Queries = %d, want %d", br.Timings.Queries, len(wqs))
		}
		for i, q := range queries {
			if (br.Errs[i] == nil) != (refErrs[i] == nil) {
				t.Fatalf("%v: batch err %v, solo err %v", q.Columns, br.Errs[i], refErrs[i])
			}
			if br.Errs[i] != nil {
				continue
			}
			got, want := br.Results[i], refs[i]
			if got.UsedProbe2 != want.UsedProbe2 {
				t.Fatalf("%v: UsedProbe2 %v != %v", q.Columns, got.UsedProbe2, want.UsedProbe2)
			}
			if len(got.Tables) != len(want.Tables) {
				t.Fatalf("%v: %d tables != %d", q.Columns, len(got.Tables), len(want.Tables))
			}
			for ti := range got.Tables {
				if got.Tables[ti].ID != want.Tables[ti].ID {
					t.Fatalf("%v: table %d = %s, want %s", q.Columns, ti, got.Tables[ti].ID, want.Tables[ti].ID)
				}
			}
			if !reflect.DeepEqual(got.Labeling.Y, want.Labeling.Y) {
				t.Fatalf("%v: labeling diverged", q.Columns)
			}
			// Answer rows, including ranking, support, sources, scores.
			if !reflect.DeepEqual(got.Answer, want.Answer) {
				t.Fatalf("%v: consolidated answer diverged", q.Columns)
			}
		}

		// The ctx entry point with a generous per-member deadline must
		// stay bit-identical too (deadline plumbing perturbs nothing).
		dbr := eng.AnswerBatchCtx(context.Background(), wqs, 4, time.Hour)
		for i := range wqs {
			if (dbr.Errs[i] == nil) != (refErrs[i] == nil) {
				t.Fatalf("deadline batch member %d: err %v, solo err %v", i, dbr.Errs[i], refErrs[i])
			}
			if dbr.Errs[i] != nil {
				continue
			}
			if !reflect.DeepEqual(dbr.Results[i].Labeling.Y, refs[i].Labeling.Y) ||
				!reflect.DeepEqual(dbr.Results[i].Answer, refs[i].Answer) {
				t.Fatalf("deadline batch member %d diverged from solo", i)
			}
		}

		// A pre-canceled parent context fails every member with ctx.Err()
		// in its own slot — and leaves the arena pool healthy: the next
		// solo answer still matches its reference.
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		cbr := eng.AnswerBatchCtx(cctx, wqs, 4, 0)
		for i := range wqs {
			if !errors.Is(cbr.Errs[i], context.Canceled) {
				t.Fatalf("canceled batch member %d: err = %v, want context.Canceled", i, cbr.Errs[i])
			}
			if cbr.Results[i] != nil {
				t.Fatalf("canceled batch member %d: non-nil result", i)
			}
		}
		if cbr.Timings.Failed != len(wqs) || cbr.Timings.QPS() != 0 {
			t.Fatalf("canceled batch: Failed = %d, QPS = %v, want all failed at 0 QPS",
				cbr.Timings.Failed, cbr.Timings.QPS())
		}
		if refErrs[0] == nil {
			again, err := eng.Answer(wqs[0])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again.Answer, refs[0].Answer) {
				t.Fatal("post-cancel solo answer diverged: arena pool poisoned")
			}
		}
	})
}

// TestAnswerBatchConcurrent runs overlapping batches from many goroutines
// on one engine (run under -race). Every batch contains members that must
// error — an empty query, a stopword-only query, a query wider than the
// column limit and one whose column is longer than the word limit — and
// those errors must stay isolated to their slots while every other member
// stays bit-identical to its solo reference.
func TestAnswerBatchConcurrent(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []wwt.Query{
		{Columns: []string{"country", "currency"}},
		{}, // must error: empty query
		{Columns: []string{"currency", "country"}},
		{Columns: []string{"the of a"}}, // must error: no content words
		{Columns: []string{"name", "area"}},
		{Columns: []string{"currency"}},
		{Columns: slices.Repeat([]string{"country"}, 17)},    // must error: 17 columns
		{Columns: []string{strings.Repeat("currency ", 33)}}, // must error: 33 words
	}
	bad := map[int]bool{1: true, 3: true, 6: true, 7: true}
	refs := make([]*wwt.Result, len(queries))
	for i, q := range queries {
		if bad[i] {
			continue
		}
		if refs[i], err = eng.Answer(q); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			br := eng.AnswerBatchCtx(context.Background(), queries, 1+g%4, 0)
			if firstErr(br) == nil {
				t.Errorf("goroutine %d: no member failed, want the empty-query error", g)
				return
			}
			for i := range queries {
				if bad[i] {
					if br.Errs[i] == nil || br.Results[i] != nil {
						t.Errorf("goroutine %d member %d: bad query not isolated (err=%v)", g, i, br.Errs[i])
						return
					}
					continue
				}
				if br.Errs[i] != nil {
					t.Errorf("goroutine %d member %d: %v", g, i, br.Errs[i])
					return
				}
				res := br.Results[i]
				if !reflect.DeepEqual(res.Labeling.Y, refs[i].Labeling.Y) ||
					!reflect.DeepEqual(res.Answer, refs[i].Answer) {
					t.Errorf("goroutine %d member %d: diverged from solo reference", g, i)
					return
				}
			}
			if br.Timings.Failed != len(bad) {
				t.Errorf("goroutine %d: Failed = %d, want %d", g, br.Timings.Failed, len(bad))
			}
		}(g)
	}
	wg.Wait()
}

// TestAnswerBatchPanicIsolation runs a batch on an engine whose generation
// holds no tables, so every member's Read1 stage panics, and demands that
// each panic is recovered into its member's error slot instead of killing
// the process, and that the healthy engine still answers.
// TestPanickedArenaNeverPooled checks that no panicked arena re-enters the
// pool.
func TestAnswerBatchPanicIsolation(t *testing.T) {
	tables := smallCorpus(t)
	eng, err := wwt.NewEngine(tables, nil)
	if err != nil {
		t.Fatal(err)
	}
	broken := wwt.WithoutTables(eng) // no tables: Read1 panics
	queries := []wwt.Query{
		{Columns: []string{"country", "currency"}},
		{Columns: []string{"currency"}},
	}
	br := broken.AnswerBatchCtx(context.Background(), queries, 2, 0)
	for i := range queries {
		if br.Errs[i] == nil || !strings.Contains(br.Errs[i].Error(), "panicked") {
			t.Fatalf("member %d: err = %v, want recovered panic", i, br.Errs[i])
		}
		if br.Results[i] != nil {
			t.Fatalf("member %d: non-nil result for panicked member", i)
		}
	}
	if br.Timings.Failed != len(queries) {
		t.Errorf("Failed = %d, want %d", br.Timings.Failed, len(queries))
	}
	// Same with a per-member deadline: the panic must not leak the
	// member's timeout context (its cancel is deferred under the panic).
	dbr := broken.AnswerBatchCtx(context.Background(), queries, 2, time.Hour)
	for i := range queries {
		if dbr.Errs[i] == nil || !strings.Contains(dbr.Errs[i].Error(), "panicked") {
			t.Fatalf("deadline member %d: err = %v, want recovered panic", i, dbr.Errs[i])
		}
		if !errors.Is(dbr.Errs[i], wwt.ErrPanic) {
			t.Fatalf("deadline member %d: err %v does not wrap wwt.ErrPanic", i, dbr.Errs[i])
		}
	}
	// The healthy engine is unaffected.
	if _, err := eng.Answer(queries[0]); err != nil {
		t.Fatalf("healthy engine after panic batch: %v", err)
	}
}

// TestAnswerBatchEmpty: a zero-member batch is a cheap no-op.
func TestAnswerBatchEmpty(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	br := eng.AnswerBatchCtx(context.Background(), nil, 8, 0)
	if len(br.Results) != 0 || len(br.Errs) != 0 || firstErr(br) != nil {
		t.Fatalf("empty batch = %+v", br)
	}
}

// firstErr returns the error of the lowest-indexed failed member, or nil
// when every member succeeded.
func firstErr(br *wwt.BatchResult) error {
	for _, err := range br.Errs {
		if err != nil {
			return err
		}
	}
	return nil
}
