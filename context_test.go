package wwt_test

// Cancellation and batch-accounting tests: a query whose context expires
// mid-pipeline must abort between stages with ctx.Err() in its own slot,
// its arena must return to the pool reusable (never poisoned), and the
// batch throughput/stage accounting must stay honest as stages are added
// or members fail.

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"wwt"
)

// countingCtx is a deterministic stand-in for a deadline: Err returns nil
// for the first failAfter calls and context.DeadlineExceeded (stickily)
// from then on. The pipeline polls Err exactly once per stage, so a
// mid-pipeline expiry can be pinned to an exact stage boundary without
// timing races. Done/Deadline/Value come from the embedded background
// context — the pipeline only polls Err.
type countingCtx struct {
	context.Context
	calls     atomic.Int64
	failAfter int64
}

func newCountingCtx(failAfter int64) *countingCtx {
	return &countingCtx{Context: context.Background(), failAfter: failAfter}
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.failAfter {
		return context.DeadlineExceeded
	}
	return nil
}

// errChecksPerAnswer learns how many times a full successful pipeline
// polls ctx.Err (once per stage), so the cancellation tests stay correct
// if stages are added to the pipeline.
func errChecksPerAnswer(t *testing.T, eng *wwt.Engine, q wwt.Query) int64 {
	t.Helper()
	ctx := newCountingCtx(1 << 30)
	if _, err := eng.AnswerCtx(ctx, q); err != nil {
		t.Fatalf("probe answer: %v", err)
	}
	n := ctx.calls.Load()
	if n < 2 {
		t.Fatalf("pipeline polled ctx.Err %d times, want at least one check per stage", n)
	}
	return n
}

// assertSameResult compares everything a Result carries that the batch
// equivalence contract pins: candidates, probe2 usage, labeling and the
// consolidated answer.
func assertSameResult(t *testing.T, label string, got, want *wwt.Result) {
	t.Helper()
	if got.UsedProbe2 != want.UsedProbe2 {
		t.Fatalf("%s: UsedProbe2 %v != %v", label, got.UsedProbe2, want.UsedProbe2)
	}
	if len(got.Tables) != len(want.Tables) {
		t.Fatalf("%s: %d tables != %d", label, len(got.Tables), len(want.Tables))
	}
	for ti := range got.Tables {
		if got.Tables[ti].ID != want.Tables[ti].ID {
			t.Fatalf("%s: table %d = %s, want %s", label, ti, got.Tables[ti].ID, want.Tables[ti].ID)
		}
	}
	if !reflect.DeepEqual(got.Labeling.Y, want.Labeling.Y) {
		t.Fatalf("%s: labeling diverged", label)
	}
	if !reflect.DeepEqual(got.Answer, want.Answer) {
		t.Fatalf("%s: consolidated answer diverged", label)
	}
}

// TestAnswerCtxDeadlineMidPipeline aborts a solo query between two
// mid-pipeline stages and demands ctx.Err() back — and that the arena the
// aborted query returned to the pool is clean: the very next Answer on
// the same engine (which draws that arena) is bit-identical to a
// reference computed before the abort.
func TestAnswerCtxDeadlineMidPipeline(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	q := wwt.Query{Columns: []string{"country", "currency"}}
	ref, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if n := errChecksPerAnswer(t, eng, q); n < 3 {
		t.Skipf("pipeline too short (%d stages) for a mid-pipeline abort", n)
	}

	res, err := eng.AnswerCtx(newCountingCtx(2), q) // aborts before the 3rd stage
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatalf("non-nil result for aborted query")
	}

	// An already-expired context aborts before the first stage.
	if _, err := eng.AnswerCtx(newCountingCtx(0), q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("pre-expired ctx: err = %v, want context.DeadlineExceeded", err)
	}

	// The aborted queries' arenas are back in the pool and clean.
	got, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "post-abort answer", got, ref)
}

// TestAnswerCtxRealDeadline exercises the real context.WithTimeout plumbing
// (as opposed to countingCtx): an already-expired deadline must surface as
// context.DeadlineExceeded, a canceled context as context.Canceled.
func TestAnswerCtxRealDeadline(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	q := wwt.Query{Columns: []string{"country", "currency"}}

	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	if _, err := eng.AnswerCtx(ctx, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}

	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, err := eng.AnswerCtx(cctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: err = %v, want context.Canceled", err)
	}

	// A generous deadline changes nothing.
	gctx, gcancel := context.WithTimeout(context.Background(), time.Hour)
	defer gcancel()
	ref, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.AnswerCtx(gctx, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "generous deadline", got, ref)
}

// TestAnswerBatchCtxMemberCancellation runs a serial batch whose shared
// context expires while a middle member is mid-pipeline: members before
// the expiry must stay bit-identical to solo answers, the expiring member
// and every later one must carry context.DeadlineExceeded in their own
// slots, and the canceled members' arenas must recycle cleanly (the same
// engine answers the whole workload again, bit-identically, afterwards).
func TestAnswerBatchCtxMemberCancellation(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []wwt.Query{
		{Columns: []string{"country", "currency"}},
		{Columns: []string{"name", "area"}},
		{Columns: []string{"currency"}},
	}
	refs := make([]*wwt.Result, len(queries))
	for i, q := range queries {
		if refs[i], err = eng.Answer(q); err != nil {
			t.Fatal(err)
		}
	}
	perQuery := errChecksPerAnswer(t, eng, queries[0])

	// One worker answers the members in order; the context starts failing
	// partway through member 1's pipeline.
	ctx := newCountingCtx(perQuery + 2)
	br := eng.AnswerBatchCtx(ctx, queries, 1, 0)
	assertSameResult(t, "member 0", br.Results[0], refs[0])
	for i := 1; i < len(queries); i++ {
		if !errors.Is(br.Errs[i], context.DeadlineExceeded) {
			t.Fatalf("member %d: err = %v, want context.DeadlineExceeded", i, br.Errs[i])
		}
		if br.Results[i] != nil {
			t.Fatalf("member %d: non-nil result for canceled member", i)
		}
	}
	if br.Timings.Failed != len(queries)-1 {
		t.Errorf("Failed = %d, want %d", br.Timings.Failed, len(queries)-1)
	}

	// Canceled members' arenas are back in the pool and clean: the same
	// engine re-answers everything bit-identically.
	for i, q := range queries {
		got, err := eng.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "post-cancel re-answer", got, refs[i])
	}
}

// TestAnswerBatchCtxPerQueryDeadline: a generous per-member deadline must
// not perturb results, and a pre-canceled parent fails every member with
// its own context.Canceled slot.
func TestAnswerBatchCtxPerQueryDeadline(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []wwt.Query{
		{Columns: []string{"country", "currency"}},
		{Columns: []string{"currency"}},
	}
	refs := make([]*wwt.Result, len(queries))
	for i, q := range queries {
		if refs[i], err = eng.Answer(q); err != nil {
			t.Fatal(err)
		}
	}

	br := eng.AnswerBatchCtx(context.Background(), queries, 2, time.Hour)
	for i := range queries {
		if br.Errs[i] != nil {
			t.Fatalf("member %d: %v", i, br.Errs[i])
		}
		assertSameResult(t, "deadline batch member", br.Results[i], refs[i])
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cbr := eng.AnswerBatchCtx(ctx, queries, 2, time.Hour)
	for i := range queries {
		if !errors.Is(cbr.Errs[i], context.Canceled) {
			t.Fatalf("member %d: err = %v, want context.Canceled", i, cbr.Errs[i])
		}
	}
	if cbr.Timings.Failed != len(queries) || cbr.Timings.Succeeded() != 0 {
		t.Errorf("canceled batch: Failed = %d, Succeeded = %d", cbr.Timings.Failed, cbr.Timings.Succeeded())
	}
}

// TestBatchTimingsQPS is the throughput-accounting regression test: QPS
// counts only successfully answered members (a batch of fast-failing
// members must not report inflated throughput); TotalQPS keeps the
// all-members rate.
func TestBatchTimingsQPS(t *testing.T) {
	bt := wwt.BatchTimings{Queries: 10, Failed: 4, Wall: 2 * time.Second}
	if got := bt.Succeeded(); got != 6 {
		t.Errorf("Succeeded = %d, want 6", got)
	}
	if got := bt.QPS(); got != 3 {
		t.Errorf("QPS = %v, want 3 (successful members only)", got)
	}
	if got := bt.TotalQPS(); got != 5 {
		t.Errorf("TotalQPS = %v, want 5", got)
	}
	var zero wwt.BatchTimings
	if zero.QPS() != 0 || zero.TotalQPS() != 0 {
		t.Errorf("zero-wall QPS must be 0, got %v/%v", zero.QPS(), zero.TotalQPS())
	}
}

// TestTimingsFieldsComplete pins the single stage enumeration behind
// Timings.Add, Total and Stages against the struct by reflection: every
// field must be a duration, appear exactly once in Stages, and be summed
// by Add — so a stage added to the pipeline cannot be silently dropped
// from batch aggregation.
func TestTimingsFieldsComplete(t *testing.T) {
	var a, b wwt.Timings
	rv := reflect.ValueOf(&b).Elem()
	rt := rv.Type()
	var wantTotal time.Duration
	for i := 0; i < rt.NumField(); i++ {
		if rt.Field(i).Type != reflect.TypeOf(time.Duration(0)) {
			t.Fatalf("Timings.%s is %v, want time.Duration", rt.Field(i).Name, rt.Field(i).Type)
		}
		d := time.Duration(i + 1)
		rv.Field(i).Set(reflect.ValueOf(d))
		wantTotal += d
	}

	if got := b.Total(); got != wantTotal {
		t.Errorf("Total = %v, want %v: a field is missing from the enumeration", got, wantTotal)
	}

	stages := b.Stages()
	if len(stages) != rt.NumField() {
		t.Fatalf("Stages lists %d entries, struct has %d fields", len(stages), rt.NumField())
	}
	seen := map[string]bool{}
	var stageTotal time.Duration
	for _, s := range stages {
		if s.Name == "" || seen[s.Name] {
			t.Errorf("stage name %q empty or duplicated", s.Name)
		}
		seen[s.Name] = true
		stageTotal += s.D
	}
	if stageTotal != wantTotal {
		t.Errorf("Stages sum to %v, want %v", stageTotal, wantTotal)
	}

	a.Add(b)
	a.Add(b)
	av := reflect.ValueOf(a)
	for i := 0; i < rt.NumField(); i++ {
		want := 2 * time.Duration(i+1)
		if got := av.Field(i).Interface().(time.Duration); got != want {
			t.Errorf("after two Adds, %s = %v, want %v: field missing from Add", rt.Field(i).Name, got, want)
		}
	}
}
