package wwt_test

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"wwt"
	"wwt/internal/consolidate"
	"wwt/internal/core"
	"wwt/internal/corpusgen"
	"wwt/internal/extract"
	"wwt/internal/index"
	"wwt/internal/workload"
	"wwt/internal/wtable"
)

// liveDir freezes the small corpus as a 2-shard flat index directory the
// live engine can open (flat files + table store, no manifest yet).
func liveDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := index.WriteDir(dir, smallCorpus(t), 2); err != nil {
		t.Fatal(err)
	}
	return dir
}

// currencyTable builds one Country/Currency table carrying a unique row.
func currencyTable(i int) *wtable.Table {
	hdr := wtable.Row{Cells: []wtable.Cell{
		{Text: "Country", IsTH: true}, {Text: "Currency", IsTH: true},
	}}
	body := wtable.Row{Cells: []wtable.Cell{
		{Text: fmt.Sprintf("Atlantis%d", i)}, {Text: fmt.Sprintf("Coin%d", i)},
	}}
	return &wtable.Table{
		ID:         fmt.Sprintf("live-%d", i),
		PageTitle:  "Currencies of the world",
		HeaderRows: []wtable.Row{hdr},
		BodyRows:   []wtable.Row{body},
	}
}

func tableIDs(res *wwt.Result) []string {
	ids := make([]string, len(res.Tables))
	for i, t := range res.Tables {
		ids[i] = t.ID
	}
	return ids
}

func hasRow(res *wwt.Result, cell0 string) bool {
	for _, row := range res.Answer.Rows {
		if len(row.Cells) > 0 && row.Cells[0] == cell0 {
			return true
		}
	}
	return false
}

// TestOpenLiveFallback: a directory without a flat index reports
// fs.ErrNotExist, so callers can tell a missing index from a corrupt one.
func TestOpenLiveFallback(t *testing.T) {
	if _, err := wwt.OpenLive(t.TempDir(), nil); !errors.Is(err, fs.ErrNotExist) ||
		!strings.Contains(err.Error(), "wwt-index") {
		t.Fatalf("OpenLive on empty dir: %v, want fs.ErrNotExist naming wwt-index", err)
	}
}

// TestLiveEngineIngestRoundTrip: ingest publishes a new queryable
// generation without reopening, rejects duplicate IDs, and the committed
// manifest makes the ingested segment survive a cold reopen.
func TestLiveEngineIngestRoundTrip(t *testing.T) {
	dir := liveDir(t)
	le, err := wwt.OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer le.Close()

	info := le.Info()
	if info.Generation != 0 || info.Segments != 1 || info.Docs != 3 {
		t.Fatalf("fresh open info = %+v", info)
	}

	q := wwt.Query{Columns: []string{"country", "currency"}}
	res, err := le.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if hasRow(res, "Atlantis0") {
		t.Fatal("unreachable row present before ingest")
	}

	info, err = le.IngestTables([]*wtable.Table{currencyTable(0)})
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 || info.Segments != 2 || info.Docs != 4 {
		t.Fatalf("post-ingest info = %+v", info)
	}
	res, err = le.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !hasRow(res, "Atlantis0") {
		t.Fatalf("ingested row missing from answer: %+v", res.Answer.Rows)
	}

	// Duplicate IDs are rejected — against the base corpus and the
	// just-ingested segment alike.
	if _, err := le.IngestTables([]*wtable.Table{currencyTable(0)}); !errors.Is(err, wwt.ErrTableExists) {
		t.Fatalf("duplicate ingest: %v", err)
	}

	// A cold reopen sees the committed manifest: same generation, same
	// docs, ingested row still answerable.
	le2, err := wwt.OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer le2.Close()
	if got := le2.Info(); got.Generation != 1 || got.Docs != 4 {
		t.Fatalf("reopened info = %+v", got)
	}
	res, err = le2.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !hasRow(res, "Atlantis0") {
		t.Fatal("ingested row lost across reopen")
	}
}

// TestLiveEngineMerge: enough single-doc ingests trigger the size-tiered
// background merge; the compacted index answers identically and the
// segment count drops.
func TestLiveEngineMerge(t *testing.T) {
	// The counters behind the wwt_*_total series are engine-lifetime: no
	// swap, ingest or merge may send them backwards (that would break
	// Prometheus rate()), and a query after the swaps must move them. On
	// this 3-table corpus the top-k floor never arms, so the block counters
	// stay 0; the view cache, which every candidate table's view is looked
	// up in, carries the "a query moves it" check instead.
	le, err := wwt.OpenLive(liveDir(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer le.Close()
	viewLookups := func() uint64 {
		v := le.CacheStats().Views
		return v.Hits + v.Misses
	}
	q := wwt.Query{Columns: []string{"country", "currency"}}
	res, err := le.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	prev, prevViews := le.PlanStats(), viewLookups()
	if prevViews == 0 {
		t.Fatal("the query on generation 0 made no view lookup")
	}
	monotone := func(when string) {
		t.Helper()
		ps, views := le.PlanStats(), viewLookups()
		if ps.ProbeBlocksTotal < prev.ProbeBlocksTotal || ps.ProbeBlocksSkipped < prev.ProbeBlocksSkipped || views < prevViews {
			t.Fatalf("%s: counters went backwards: %+v, %d lookups -> %+v, %d lookups", when, prev, prevViews, ps, views)
		}
		prev, prevViews = ps, views
	}

	const n = 5
	for i := 0; i < n; i++ {
		if _, err := le.IngestTables([]*wtable.Table{currencyTable(i)}); err != nil {
			t.Fatal(err)
		}
		// Drain the merger each round so the merge boundary is
		// deterministic: the tier-0 quartet compacts right after the
		// fourth ingest, before the fifth arrives.
		le.WaitMerges()
		monotone(fmt.Sprintf("after ingest %d", i))
	}
	info := le.Info()
	// 5 one-doc segments: the first full tier-0 quartet merges into one
	// segment of 4 docs, leaving base + merged + 1 straggler.
	if info.Segments != 3 {
		t.Fatalf("post-merge segments = %d, want 3", info.Segments)
	}
	if info.Docs != 3+n {
		t.Fatalf("post-merge docs = %d, want %d", info.Docs, 3+n)
	}
	_, merges := le.IngestCounts()
	if merges == 0 {
		t.Fatal("no merge recorded")
	}
	if res, err = le.Answer(q); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !hasRow(res, fmt.Sprintf("Atlantis%d", i)) {
			t.Fatalf("row Atlantis%d lost after merge", i)
		}
	}
	before := prevViews
	monotone("query after the swaps")
	if prevViews <= before {
		t.Fatalf("query after the swaps left the view lookups at %d", prevViews)
	}
}

// TestOpenLiveRefusesMismatchedStore: OpenLive resolves hits to tables by
// doc number, so a segment whose table store lists its tables in another
// order than its doc table, or one table fewer, must fail the open with an
// error naming the segment and wwt-index. A table ID held by two segments
// fails the open too.
func TestOpenLiveRefusesMismatchedStore(t *testing.T) {
	batch := []*wtable.Table{currencyTable(1), currencyTable(2), currencyTable(3)}
	seg := index.SegmentDirName(0)
	// ingested returns a live directory holding batch as segment seg.
	ingested := func(t *testing.T) string {
		t.Helper()
		dir := liveDir(t)
		le, err := wwt.OpenLive(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := le.IngestTables(batch); err != nil {
			t.Fatal(err)
		}
		le.Close()
		return dir
	}
	openFails := func(t *testing.T, dir string, want ...string) {
		t.Helper()
		le, err := wwt.OpenLive(dir, nil)
		if err == nil {
			le.Close()
			t.Fatal("OpenLive accepted the directory")
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("open error %q does not mention %q", err, w)
			}
		}
	}
	for name, c := range map[string]struct {
		tables []*wtable.Table
		want   string
	}{
		"reordered": {[]*wtable.Table{batch[1], batch[0], batch[2]}, `lists table "live-2"`},
		"one fewer": {batch[:2], "holds 2 tables"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := ingested(t)
			other := t.TempDir()
			if err := index.WriteDir(other, c.tables, 1); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(other, index.TablesFileName))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, seg, index.TablesFileName), data, 0o644); err != nil {
				t.Fatal(err)
			}
			openFails(t, dir, seg, "wwt-index", c.want)
		})
	}
	t.Run("ID in two segments", func(t *testing.T) {
		dir := ingested(t)
		twin := index.SegmentDirName(1)
		if err := index.WriteDir(filepath.Join(dir, twin), batch[2:], 1); err != nil {
			t.Fatal(err)
		}
		m, _, err := index.ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		m.Segments = append(m.Segments, twin)
		if err := index.WriteManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		openFails(t, dir, twin, `duplicate table ID "live-3"`)
	})
}

// TestInMemoryEngineRefusesIngest: an engine built in memory has no index
// directory, so IngestTables fails with a precise error and publishes
// nothing.
func TestInMemoryEngineRefusesIngest(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Info()
	if _, err := eng.IngestTables([]*wtable.Table{currencyTable(0)}); err == nil ||
		!strings.Contains(err.Error(), "no index directory") {
		t.Fatalf("in-memory ingest: err = %v, want a no-index-directory refusal", err)
	}
	if after := eng.Info(); after != before {
		t.Fatalf("refused ingest changed Info: %+v -> %+v", before, after)
	}
	eng.WaitMerges() // no merger to wait for: must return at once
}

// TestLiveEngineMergeErrorCounted: a background merge that cannot write
// its destination must be counted — not silently dropped — and must leave
// the daemon serving: queries and further ingests continue on the unmerged
// generation, and the merger recovers once the destination is writable.
func TestLiveEngineMergeErrorCounted(t *testing.T) {
	dir := liveDir(t)
	le, err := wwt.OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer le.Close()

	// Four one-doc ingests (segments 0–3) fill tier 0; the merge kicked by
	// the fourth writes segment 4. A regular file squatting on that path
	// makes the destination unwritable (robust even when the tests run as
	// root, where permission bits would not stop the write).
	blocker := filepath.Join(dir, index.SegmentDirName(4))
	if err := os.MkdirAll(filepath.Dir(blocker), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blocker, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := le.IngestTables([]*wtable.Table{currencyTable(i)}); err != nil {
			t.Fatal(err)
		}
		le.WaitMerges()
	}
	info := le.Info()
	if info.MergeErrors != 1 {
		t.Fatalf("MergeErrors = %d after a blocked merge, want 1", info.MergeErrors)
	}
	if ingestErrs, merges := le.IngestCounts(); merges != 0 || ingestErrs != 0 {
		t.Fatalf("blocked merge recorded %d merges / %d ingest errors, want 0/0", merges, ingestErrs)
	}
	if info.Segments != 5 || info.Docs != 3+4 {
		t.Fatalf("failed merge changed the serving generation: %+v", info)
	}
	q := wwt.Query{Columns: []string{"country", "currency"}}
	res, err := le.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !hasRow(res, fmt.Sprintf("Atlantis%d", i)) {
			t.Fatalf("row Atlantis%d not served from the unmerged generation", i)
		}
	}

	// Destination writable again: the next ingest is served at once and
	// re-kicks the merger, which now succeeds; the failure stays counted.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if _, err := le.IngestTables([]*wtable.Table{currencyTable(4)}); err != nil {
		t.Fatal(err)
	}
	if res, err = le.Answer(q); err != nil || !hasRow(res, "Atlantis4") {
		t.Fatalf("ingest after a failed merge not served (err=%v)", err)
	}
	le.WaitMerges()
	if _, merges := le.IngestCounts(); merges == 0 {
		t.Fatal("merger did not recover once the destination was writable")
	}
	if got := le.Info(); got.MergeErrors != 1 || got.Docs != 3+5 {
		t.Fatalf("post-recovery info = %+v, want MergeErrors 1 and %d docs", got, 3+5)
	}
}

// TestHotSwapConcurrent hammers the live engine from 16 goroutines while
// the main goroutine repeatedly ingests and the background merger swaps
// generations underneath them. Asserts: queries never fail mid-swap,
// every ingest is immediately visible on the next query (no stale
// cross-query cache hits), and after Close every retired generation was
// reclaimed exactly once (old segments closed only after their last
// release). Run under -race in CI, where the generation pin/refcount
// protocol is the actual subject under test.
func TestHotSwapConcurrent(t *testing.T) {
	dir := liveDir(t)
	le, err := wwt.OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 16
	stop := make(chan struct{})
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	queries := []wwt.Query{
		{Columns: []string{"country", "currency"}},
		{Columns: []string{"name", "area"}},
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				br := le.AnswerBatchPlan(context.Background(), queries, 2, 10*time.Second, wwt.BatchPlan{})
				for i, err := range br.Errs {
					if err != nil {
						select {
						case errc <- fmt.Errorf("query %d: %w", i, err):
						default:
						}
						return
					}
					// In-flight members finished on their pinned
					// generation: a batch spanning a swap must still
					// produce a complete answer, never a partial one.
					if len(br.Results[i].Answer.Rows) == 0 {
						select {
						case errc <- fmt.Errorf("query %d: empty answer mid-swap", i):
						default:
						}
						return
					}
				}
			}
		}()
	}

	const ingests = 8
	for i := 0; i < ingests; i++ {
		info, err := le.IngestTables([]*wtable.Table{currencyTable(i)})
		if err != nil {
			t.Fatal(err)
		}
		if info.Docs != 3+i+1 {
			t.Fatalf("ingest %d: docs = %d, want %d", i, info.Docs, 3+i+1)
		}
		// The swap is immediately visible — a stale view/doc-set
		// cache would keep answering without the new table.
		res, err := le.Answer(wwt.Query{Columns: []string{"country", "currency"}})
		if err != nil {
			t.Fatal(err)
		}
		if !hasRow(res, fmt.Sprintf("Atlantis%d", i)) {
			t.Fatalf("ingest %d not visible on the very next query", i)
		}
	}

	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// The arena pool is engine-lifetime, so arenas dirtied on one
	// generation serve the next. An answer on an arena dirtied before a
	// swap must equal the answer of a fresh engine over the same directory.
	le.WaitMerges()
	q := queries[0]
	s := &wwt.QueryScratch{}
	if _, _, err := wwt.AnswerWithModel(le, q, s); err != nil {
		t.Fatal(err)
	}
	if _, err := le.IngestTables([]*wtable.Table{currencyTable(ingests)}); err != nil {
		t.Fatal(err)
	}
	le.WaitMerges()
	swapped, swappedModel, err := wwt.AnswerWithModel(le, q, s)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := wwt.OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, wantModel, err := wwt.AnswerWithModel(fresh, q, &wwt.QueryScratch{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tableIDs(swapped), tableIDs(want)) ||
		!reflect.DeepEqual(swapped.Labeling.Y, want.Labeling.Y) ||
		!reflect.DeepEqual(swappedModel.Node, wantModel.Node) ||
		!reflect.DeepEqual(swapped.Answer, want.Answer) {
		t.Fatal("answer on a recycled arena after a swap differs from a fresh engine's")
	}

	if err := le.Close(); err != nil {
		t.Fatal(err)
	}
	retired, reclaimed := le.GenerationCounts()
	if retired < ingests {
		t.Fatalf("retired = %d, want >= %d (one per ingest swap)", retired, ingests)
	}
	// Every retired generation plus the final one must have closed exactly
	// once, and only after its last query released it.
	if reclaimed != retired+1 {
		t.Fatalf("reclaimed = %d, want retired+1 = %d", reclaimed, retired+1)
	}
}

// TestCarriedViewsMatchFreshOpen: table views are engine-lifetime and
// carry no corpus statistics, so views built on early generations keep
// serving after ingests and merges have moved the IDF under them. The
// engine opens on 80% of the corpus, answers the workload, ingests the
// rest in 8 batches answering the workload after each, and then — once
// the merges settle — must answer exactly as a fresh engine over the same
// directory: answer rows to the score bit, and every feature and stage-1
// distribution of the model.
func TestCarriedViewsMatchFreshOpen(t *testing.T) {
	corpus := corpusgen.Generate(corpusgen.Config{Seed: 2012, Scale: 0.25})
	tables := corpus.ExtractAll(extract.NewOptions())
	var queries []wwt.Query
	for _, q := range workload.FromCorpus(corpus) {
		queries = append(queries, wwt.Query{Columns: q.Columns})
	}
	split := len(tables) * 8 / 10
	dir := t.TempDir()
	if err := index.WriteDir(dir, tables[:split], 2); err != nil {
		t.Fatal(err)
	}

	le, err := wwt.OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer le.Close()
	// answerAll answers every query on its own arena, so each model stays
	// valid for the comparison.
	answerAll := func(e *wwt.Engine) ([]*wwt.Result, []*core.Model) {
		out := make([]*wwt.Result, len(queries))
		models := make([]*core.Model, len(queries))
		for i, q := range queries {
			res, m, err := wwt.AnswerWithModel(e, q, &wwt.QueryScratch{})
			if err != nil {
				t.Fatalf("%v: %v", q.Columns, err)
			}
			out[i], models[i] = res, m
		}
		return out, models
	}
	warm := func() {
		for _, q := range queries {
			if _, err := le.Answer(q); err != nil {
				t.Fatalf("%v: %v", q.Columns, err)
			}
		}
	}
	warm()
	const batches = 8
	rest := tables[split:]
	for b := 0; b < batches; b++ {
		if _, err := le.IngestTables(rest[b*len(rest)/batches : (b+1)*len(rest)/batches]); err != nil {
			t.Fatal(err)
		}
		warm()
	}
	le.WaitMerges()
	if _, merges := le.IngestCounts(); merges == 0 {
		t.Fatal("no merge ran; the test must cover a merge swap")
	}
	views := le.CacheStats().Views
	if views.Hits == 0 {
		t.Fatal("no view was served from the cache")
	}
	// Every table was analyzed by a pass after its ingest, and a merge
	// keeps the table pointers it compacts, so this pass misses nothing.
	got, gotModels := answerAll(le)
	if added := le.CacheStats().Views.Misses - views.Misses; added != 0 {
		t.Errorf("the pass after the merges added %d view misses, want 0: a merge must keep its tables' pointers", added)
	}
	// The candidates are the very tables the test ingested, merged or not.
	ingested := make(map[string]*wtable.Table, len(rest))
	for _, tb := range rest {
		ingested[tb.ID] = tb
	}
	checked := 0
	for _, res := range got {
		for _, tb := range res.Tables {
			if want, ok := ingested[tb.ID]; ok {
				if tb != want {
					t.Fatalf("table %q is a copy of the ingested one: a merge must keep table pointers", tb.ID)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no ingested table among the candidates")
	}

	fresh, err := wwt.OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, wantModels := answerAll(fresh)
	for i, q := range queries {
		g, w := got[i], want[i]
		gm, wm := gotModels[i], wantModels[i]
		if !reflect.DeepEqual(tableIDs(g), tableIDs(w)) {
			t.Fatalf("%v: candidate tables differ", q.Columns)
		}
		if !sameRows(g.Answer.Rows, w.Answer.Rows) {
			t.Errorf("%v: answer rows differ", q.Columns)
		}
		if !sameBits(gm.Feats, wm.Feats, func(fs []core.Features) []float64 {
			var out []float64
			for _, f := range fs {
				out = append(out, f.SegSim, f.Cover, f.PMI2)
			}
			return out
		}) {
			t.Errorf("%v: feats differ", q.Columns)
		}
		if !sameBits(gm.Dist, wm.Dist, func(d []float64) []float64 { return d }) {
			t.Errorf("%v: dist differs", q.Columns)
		}
	}
}

// sameRows compares answer rows exactly, scores by bit pattern.
func sameRows(a, b []consolidate.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) ||
			a[i].Support != b[i].Support ||
			!reflect.DeepEqual(a[i].Cells, b[i].Cells) ||
			!reflect.DeepEqual(a[i].Sources, b[i].Sources) {
			return false
		}
	}
	return true
}

// sameBits compares two [table][column] grids cell by cell, each cell
// flattened to floats and compared by bit pattern.
func sameBits[T any](a, b [][]T, bits func(T) []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for ti := range a {
		if len(a[ti]) != len(b[ti]) {
			return false
		}
		for c := range a[ti] {
			x, y := bits(a[ti][c]), bits(b[ti][c])
			if len(x) != len(y) {
				return false
			}
			for k := range x {
				if math.Float64bits(x[k]) != math.Float64bits(y[k]) {
					return false
				}
			}
		}
	}
	return true
}
