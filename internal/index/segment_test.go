package index

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wwt/internal/wtable"
)

// TestManifestRoundTrip: commit, read back, and the implicit manifest of a
// bare flat directory.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// Neither manifest nor flat index: fs.ErrNotExist (no index at all).
	if _, err := SnapshotManifest(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("empty dir: err = %v, want fs.ErrNotExist", err)
	}

	// A bare flat index gets the implicit base-only manifest.
	_, tables := buildRandCorpus(t, 1, 8)
	if err := WriteDir(dir, tables, 2); err != nil {
		t.Fatal(err)
	}
	m, err := SnapshotManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Generation != 0 || !reflect.DeepEqual(m.Segments, []string{"."}) {
		t.Fatalf("implicit manifest = %+v", m)
	}

	m.Generation = 7
	m.Segments = []string{".", SegmentDirName(0)}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("ReadManifest: ok=%v err=%v", ok, err)
	}
	if got.Generation != 7 || !reflect.DeepEqual(got.Segments, m.Segments) {
		t.Fatalf("round trip = %+v, want %+v", got, m)
	}

	// Malicious/corrupt segment paths are rejected.
	for _, bad := range []string{"", "/abs", "../escape"} {
		b := m
		b.Segments = []string{bad}
		if err := WriteManifest(dir, b); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadManifest(dir); err == nil {
			t.Fatalf("segment path %q accepted", bad)
		}
	}
}

// TestPlanMerge pins the size-tiered policy: the lowest full tier merges,
// partial tiers wait.
func TestPlanMerge(t *testing.T) {
	cases := []struct {
		docs []int
		want []int
	}{
		{nil, nil},
		{[]int{1, 2, 3}, nil},                                  // tier 0 not full
		{[]int{1, 2, 3, 2}, []int{0, 1, 2, 3}},                 // tier 0 full
		{[]int{100, 1, 2, 3, 2}, []int{1, 2, 3, 4}},            // big segment left out
		{[]int{20, 30, 21, 22, 1, 2}, []int{0, 1, 2, 3}},       // tier 2 (16..63 docs) full
		{[]int{1, 1, 1, 1, 20, 30, 21, 22}, []int{0, 1, 2, 3}}, // lowest full tier wins
	}
	for i, c := range cases {
		if got := PlanMerge(c.docs); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("case %d: PlanMerge(%v) = %v, want %v", i, c.docs, got, c.want)
		}
	}
}

// TestMergedSegmentEquivalence: a merge writes the concatenation of its
// input segments' tables as one new segment (WriteDir). Its search results
// must be bit-identical — IDs, global doc numbers, scores — to the
// pre-merge segment list, and its store must list every table in doc
// order.
func TestMergedSegmentEquivalence(t *testing.T) {
	_, tables := buildRandCorpus(t, 9, 30)
	chunks := splitTables(tables, 3, 9)
	dirs := make([]string, len(chunks))
	for i, chunk := range chunks {
		dirs[i] = filepath.Join(t.TempDir(), "seg")
		if err := WriteDir(dirs[i], chunk, 1); err != nil {
			t.Fatal(err)
		}
	}
	before, err := openSharded(false, dirs...)
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()

	merged := filepath.Join(t.TempDir(), "merged")
	if err := WriteDir(merged, slices.Concat(chunks...), 1); err != nil {
		t.Fatal(err)
	}
	after, err := openSharded(false, merged)
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()

	r := rand.New(rand.NewSource(3))
	for i := 0; i < 25; i++ {
		q := randQuery(r)
		sameHitsBitIdentical(t, before.Search(q, 10), after.Search(q, 10), "merge")
	}
	got, err := ReadTables(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tables) {
		t.Fatalf("merged store holds %d tables, want %d", len(got), len(tables))
	}
	for i, tb := range got {
		if tb.ID != after.IDOf(int32(i)) {
			t.Fatalf("store table %d is %q, doc table says %q", i, tb.ID, after.IDOf(int32(i)))
		}
	}
}

// TestOpenSnapshot: a committed manifest opens all listed segments in
// order with stable global doc numbering, and a stale segment directory
// not in the manifest is ignored.
func TestOpenSnapshot(t *testing.T) {
	dir := t.TempDir()
	_, tables := buildRandCorpus(t, 11, 20)
	if err := WriteDir(dir, tables, 2); err != nil {
		t.Fatal(err)
	}
	extra := mkTable("live-1", []string{"Planet", "Moons"},
		[][]string{{"Jupiter", "95"}, {"Saturn", "146"}}, "moon counts")
	seg := SegmentDirName(0)
	if err := WriteDir(filepath.Join(dir, seg), []*wtable.Table{extra}, 1); err != nil {
		t.Fatal(err)
	}
	// An orphan directory (crash between flush and commit) must be ignored.
	orphan := filepath.Join(dir, SegmentDirName(1))
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(dir, Manifest{Generation: 3, Segments: []string{".", seg}}); err != nil {
		t.Fatal(err)
	}

	ms, m, err := OpenSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if m.Generation != 3 || ms.Generation() != 3 {
		t.Fatalf("generation = %d/%d, want 3", m.Generation, ms.Generation())
	}
	if ms.Segments() != 2 || ms.Len() != len(tables)+1 {
		t.Fatalf("segments=%d len=%d, want 2/%d", ms.Segments(), ms.Len(), len(tables)+1)
	}
	// The ingested doc is searchable and globally numbered after the base.
	hits := ms.Search([]string{"saturn"}, 1)
	if len(hits) != 1 || hits[0].ID != "live-1" || hits[0].Doc != int32(len(tables)) {
		t.Fatalf("search for ingested table = %v", hits)
	}
	if id := ms.IDOf(int32(len(tables))); id != "live-1" {
		t.Fatalf("IDOf(base len) = %q, want live-1", id)
	}
}

// TestCommitSyncOrder pins the durability order of a commit through the
// one sync helper: WriteDir syncs every file it writes after its last
// byte, then the segment directory, then the directory naming it; the
// manifest commit syncs its temp file, renames it, and only then syncs the
// index directory — so once WriteManifest returns, the caller may unlink
// what only the previous manifest listed.
func TestCommitSyncOrder(t *testing.T) {
	type call struct {
		name string
		size int64
	}
	var calls []call
	dir := t.TempDir()
	orig := fsync
	fsync = func(f *os.File) error {
		st, err := f.Stat()
		if err != nil {
			t.Fatalf("sync of %s: %v", f.Name(), err)
		}
		c := call{f.Name(), st.Size()}
		if f.Name() == dir { // the manifest is already renamed into place
			m, ok, err := ReadManifest(dir)
			if err != nil || !ok || m.Generation != 1 {
				t.Fatalf("index directory synced before the rename: manifest %+v ok=%v err=%v", m, ok, err)
			}
		}
		calls = append(calls, c)
		return orig(f)
	}
	defer func() { fsync = orig }()

	_, tables := buildRandCorpus(t, 5, 10)
	seg := filepath.Join(dir, SegmentDirName(0))
	if err := WriteDir(seg, tables, 2); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, name := range []string{DocsFileName, shardFileName(0), shardFileName(1), TablesFileName} {
		want = append(want, filepath.Join(seg, name))
	}
	want = append(want, seg, filepath.Dir(seg))
	if len(calls) != len(want) {
		t.Fatalf("WriteDir synced %v, want %v", calls, want)
	}
	for i, c := range calls {
		if c.name != want[i] {
			t.Fatalf("sync %d is %s, want %s", i, c.name, want[i])
		}
		if i < 4 {
			st, err := os.Stat(c.name)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != c.size {
				t.Fatalf("%s synced at %d bytes, closed at %d", c.name, c.size, st.Size())
			}
		}
	}

	calls = nil
	if err := WriteManifest(dir, Manifest{Generation: 1, Segments: []string{SegmentDirName(0)}}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || filepath.Dir(calls[0].name) != dir ||
		!strings.HasPrefix(filepath.Base(calls[0].name), ManifestFileName+".tmp-") || calls[1].name != dir {
		t.Fatalf("WriteManifest synced %v, want its temp file then %s", calls, dir)
	}
}
