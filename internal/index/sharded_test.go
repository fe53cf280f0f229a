package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeShardedDir builds a small corpus and writes it as an n-shard index
// directory, returning the directory.
func writeShardedDir(t *testing.T, n int) string {
	t.Helper()
	_, tables := buildRandCorpus(t, 99, 12)
	dir := t.TempDir()
	if err := WriteDir(dir, tables, n); err != nil {
		t.Fatal(err)
	}
	return dir
}

// patchFile applies edit to the bytes of path in place.
func patchFile(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// asV1 rewrites a flat file's magic and version field to the retired
// WWTFLT01 layout's.
func asV1(data []byte) []byte {
	copy(data[:8], retiredFlatMagic)
	binary.LittleEndian.PutUint32(data[8:], 1)
	return data
}

// addCount adds delta to the little-endian uint64 header count at off.
func addCount(off int, delta uint64) func([]byte) []byte {
	return func(data []byte) []byte {
		le := binary.LittleEndian
		le.PutUint64(data[off:], le.Uint64(data[off:])+delta)
		return data
	}
}

// dropSection removes section id from a flat file's section table: the
// later entries move up one slot and the count shrinks. Payload offsets
// are absolute, so every other section stays readable.
func dropSection(t *testing.T, id uint32) func([]byte) []byte {
	return func(data []byte) []byte {
		le := binary.LittleEndian
		n := int(le.Uint32(data[40:]))
		for i := 0; i < n; i++ {
			e := flatHeaderSize + 24*i
			if le.Uint32(data[e:]) != id {
				continue
			}
			end := flatHeaderSize + 24*n
			copy(data[e:end], data[e+24:end])
			clear(data[end-24 : end])
			le.PutUint32(data[40:], uint32(n-1))
			return data
		}
		t.Fatalf("section %d not in the section table", id)
		return nil
	}
}

// setInt64 sets entry i of flat-file section id, an int64 section, to v.
func setInt64(t *testing.T, id uint32, i int, v int64) func([]byte) []byte {
	return setInt(t, id, 8, i, v)
}

// setInt32 sets entry i of flat-file section id, an int32 section, to v.
func setInt32(t *testing.T, id uint32, i int, v int32) func([]byte) []byte {
	return setInt(t, id, 4, i, int64(v))
}

// setInt sets entry i of flat-file section id, whose entries are
// width-byte little-endian integers, to v.
func setInt(t *testing.T, id uint32, width, i int, v int64) func([]byte) []byte {
	return func(data []byte) []byte {
		le := binary.LittleEndian
		for e := flatHeaderSize; e < flatHeaderSize+24*int(le.Uint32(data[40:])); e += 24 {
			if le.Uint32(data[e:]) != id {
				continue
			}
			at := data[int(le.Uint64(data[e+8:]))+width*i:]
			if width == 4 {
				le.PutUint32(at, uint32(v))
			} else {
				le.PutUint64(at, uint64(v))
			}
			return data
		}
		t.Fatalf("section %d not in the section table", id)
		return nil
	}
}

// TestOpenShardedErrors: every corruption mode and every retired layout
// must fail with a precise, actionable message — and a directory without a
// flat index must wrap fs.ErrNotExist so callers can tell a missing index
// from a corrupt one.
func TestOpenShardedErrors(t *testing.T) {
	docs := func(dir string) string { return filepath.Join(dir, DocsFileName) }
	postings := func(dir string) string { return filepath.Join(dir, shardFileName(0)) }
	cases := []struct {
		name     string
		shards   int
		mutate   func(t *testing.T, dir string)
		want     []string
		notExist bool
	}{
		{name: "missing", shards: 1, notExist: true, want: []string{DocsFileName},
			mutate: func(t *testing.T, dir string) {
				for _, f := range []string{docs(dir), postings(dir)} {
					if err := os.Remove(f); err != nil {
						t.Fatal(err)
					}
				}
			}},
		{name: "missing shard file", shards: 2, notExist: true, want: []string{"shard file postings-001.wwt missing"},
			mutate: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(dir, shardFileName(1))); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "truncated", shards: 1, want: []string{"smaller than"},
			mutate: func(t *testing.T, dir string) {
				if err := os.Truncate(docs(dir), 10); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "bad magic", shards: 1, want: []string{"bad magic"},
			mutate: func(t *testing.T, dir string) {
				if err := os.WriteFile(docs(dir), []byte("PNG-DATA-and-then-some-more-bytes-padding-it-out-past-the-header"), 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "newer version", shards: 1, want: []string{"version 99"},
			mutate: func(t *testing.T, dir string) {
				patchFile(t, docs(dir), func(d []byte) []byte { d[8] = 99; return d })
			}},
		{name: "retired v1 doc table", shards: 1, want: []string{"WWTFLT01", "wwt-index"},
			mutate: func(t *testing.T, dir string) { patchFile(t, docs(dir), asV1) }},
		{name: "retired v1 postings file", shards: 1, want: []string{"WWTFLT01", "wwt-index"},
			mutate: func(t *testing.T, dir string) { patchFile(t, postings(dir), asV1) }},
		{name: "gob file as flat index", shards: 1, want: []string{"gob index snapshot", "wwt-index"},
			mutate: func(t *testing.T, dir string) {
				// A retired index.gob header, padded past the flat header size.
				gob := make([]byte, 64)
				copy(gob, retiredIndexMagic)
				binary.LittleEndian.PutUint32(gob[8:], 1)
				if err := os.WriteFile(docs(dir), gob, 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "table store as flat index", shards: 1, want: []string{"gob table store", "wwt-index"},
			mutate: func(t *testing.T, dir string) {
				store := make([]byte, 64)
				copy(store, storeMagic)
				binary.LittleEndian.PutUint32(store[8:], storeVersion)
				if err := os.WriteFile(docs(dir), store, 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "postings without best-weight section", shards: 1, want: []string{"best-weight section (24)", "wwt-index"},
			mutate: func(t *testing.T, dir string) { patchFile(t, postings(dir), dropSection(t, secBestWeight)) }},
		{name: "kind mix-up", shards: 1, want: []string{"want doc table"},
			mutate: func(t *testing.T, dir string) {
				data, err := os.ReadFile(postings(dir))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(docs(dir), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "mixed builds", shards: 2, want: []string{"different builds"},
			// A shard file from a 3-shard build dropped into a 2-shard
			// directory must be rejected by the header cross-check.
			mutate: func(t *testing.T, dir string) {
				other := writeShardedDir(t, 3)
				if err := os.Rename(filepath.Join(other, shardFileName(1)), filepath.Join(dir, shardFileName(1))); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "v2 zero block size", shards: 1, want: []string{"block size 0"},
			// The block geometry of a postings file declaring width 0 is
			// undefined.
			mutate: func(t *testing.T, dir string) {
				patchFile(t, postings(dir), func(d []byte) []byte { clear(d[44:48]); return d })
			}},
		{name: "hostile doc count", shards: 1, want: []string{"corrupt flat index"},
			// numDocs + 2^61: eight times the offsets' count wraps back to
			// the real section size, so a multiplying size check passes.
			mutate: func(t *testing.T, dir string) {
				patchFile(t, docs(dir), addCount(24, 1<<61))
			}},
		{name: "hostile term count", shards: 1, want: []string{"corrupt flat index"},
			mutate: func(t *testing.T, dir string) {
				patchFile(t, postings(dir), addCount(32, 1<<61))
			}},
		{name: "hostile doc-ID offset", shards: 1, want: []string{"corrupt flat index", "doc-ID offset"},
			// The last offset still matches the blob, so only a check of
			// every offset catches doc 0's ID running 2^40 bytes.
			mutate: func(t *testing.T, dir string) {
				patchFile(t, docs(dir), setInt64(t, secIDOffs, 1, 1<<40))
			}},
		{name: "hostile term offset", shards: 1, want: []string{"corrupt flat index", "term offset"},
			mutate: func(t *testing.T, dir string) {
				patchFile(t, postings(dir), setInt64(t, secTermOffs, 1, 1<<40))
			}},
		{name: "hostile postings offset", shards: 1, want: []string{"corrupt flat index", "postings offset"},
			// The last offset still matches the docs section, so only a
			// check of every offset catches term 0's list running 2^30
			// postings.
			mutate: func(t *testing.T, dir string) {
				patchFile(t, postings(dir), setInt32(t, secFieldOff(0), 1, 1<<30))
			}},
		{name: "hostile block offset", shards: 1, want: []string{"corrupt flat index", "posting blocks"},
			mutate: func(t *testing.T, dir string) {
				patchFile(t, postings(dir), setInt32(t, secFieldBlkOff(0), 1, 1<<30))
			}},
		{name: "hostile posting doc", shards: 1, want: []string{"corrupt flat index", "posting 0 names doc 1073741824"},
			// Every offset and block count is intact; only a check of the
			// doc numbers themselves stops the first probe that reaches
			// the list from indexing its accumulator at 2^30.
			mutate: func(t *testing.T, dir string) {
				patchFile(t, postings(dir), setInt32(t, secFieldDocs(0), 0, 1<<30))
			}},
		{name: "negative posting doc", shards: 1, want: []string{"corrupt flat index", "posting 0 names doc -1"},
			mutate: func(t *testing.T, dir string) {
				patchFile(t, postings(dir), setInt32(t, secFieldDocs(0), 0, -1))
			}},
		{name: "block summary off its postings", shards: 1, want: []string{"corrupt flat index", "block 0 starts at doc"},
			// The skip test reads a block's first doc from its summary, so
			// a summary pointing outside the segment must not open.
			mutate: func(t *testing.T, dir string) {
				patchFile(t, postings(dir), setInt32(t, secFieldBlkDoc(0), 0, -1<<20))
			}},
		{name: "v2 missing block sections", shards: 1, want: []string{"missing section 32"},
			// A postings file without its block summaries must fail, not
			// open with silent misbehavior.
			mutate: func(t *testing.T, dir string) {
				patchFile(t, postings(dir), dropSection(t, secFieldBlkOff(0)))
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := writeShardedDir(t, c.shards)
			c.mutate(t, dir)
			ss, _, err := OpenSnapshot(dir)
			if err == nil {
				ss.Close()
				t.Fatalf("OpenSnapshot succeeded, want error mentioning %q", c.want)
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("OpenSnapshot error %q does not mention %q", err, w)
				}
			}
			if c.notExist != errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("error %v: wraps fs.ErrNotExist = %v, want %v", err, !c.notExist, c.notExist)
			}
		})
	}
}

// TestWriteShardedWithErrors: WriteDir with an out-of-range shard count or
// an over-limit corpus must fail with a precise error before any file is
// written.
func TestWriteShardedWithErrors(t *testing.T) {
	_, tables := buildRandCorpus(t, 99, 12)
	expectWriteError := func(t *testing.T, nShards int, want string) {
		t.Helper()
		dir := t.TempDir()
		err := WriteDir(dir, tables, nShards)
		if err == nil {
			t.Fatalf("WriteDir succeeded, want error mentioning %q", want)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
		ents, derr := os.ReadDir(dir)
		if derr != nil {
			t.Fatal(derr)
		}
		if len(ents) != 0 {
			t.Fatalf("failed write left %d file(s) behind: %v", len(ents), ents)
		}
	}
	t.Run("zero shards", func(t *testing.T) {
		expectWriteError(t, 0, "shard count 0 out of range")
	})
	t.Run("over shard limit", func(t *testing.T) {
		expectWriteError(t, MaxShards+1, fmt.Sprintf("shard count %d out of range, want 1 to %d", MaxShards+1, MaxShards))
	})
	t.Run("postings over section bound", func(t *testing.T) {
		old := maxSectionInt32
		maxSectionInt32 = 8 // force the int32 section-offset bound down
		defer func() { maxSectionInt32 = old }()
		expectWriteError(t, 1, "over the int32 section-offset bound")
	})
}

// TestGobHeaderErrors: the table store's magic/version header must
// diagnose mix-ups and stale files precisely.
func TestGobHeaderErrors(t *testing.T) {
	dir := t.TempDir()
	_, tables := buildRandCorpus(t, 7, 5)
	if err := WriteDir(dir, tables, 1); err != nil {
		t.Fatal(err)
	}
	stPath := filepath.Join(dir, TablesFileName)
	// writeVariant writes stPath's bytes, edited, as the store of a new
	// directory and returns that directory.
	writeVariant := func(t *testing.T, edit func([]byte) []byte) string {
		t.Helper()
		data, err := os.ReadFile(stPath)
		if err != nil {
			t.Fatal(err)
		}
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, TablesFileName), edit(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return d
	}

	expect := func(t *testing.T, err error, want string) {
		t.Helper()
		if err == nil {
			t.Fatalf("load succeeded, want error mentioning %q", want)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}

	t.Run("round trip", func(t *testing.T) {
		if _, err := ReadTables(dir); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("index to ReadTables", func(t *testing.T) {
		// The retired index.gob carried the same header shape.
		_, err := ReadTables(writeVariant(t, func(d []byte) []byte { copy(d, retiredIndexMagic); return d }))
		expect(t, err, "wwt index snapshot")
		expect(t, err, "wwt-index")
	})
	t.Run("flat file to ReadTables", func(t *testing.T) {
		flatDir := writeShardedDir(t, 1)
		flat, err := os.ReadFile(filepath.Join(flatDir, DocsFileName))
		if err != nil {
			t.Fatal(err)
		}
		_, err = ReadTables(writeVariant(t, func([]byte) []byte { return flat }))
		expect(t, err, "flat sharded index")
		expect(t, err, "wwt-index")
	})
	t.Run("legacy headerless gob", func(t *testing.T) {
		// A pre-versioning snapshot starts with gob's own framing, not our
		// magic.
		_, err := ReadTables(writeVariant(t, func(d []byte) []byte { return d[12:] }))
		expect(t, err, "rebuild with wwt-index")
	})
	t.Run("retired version-1 store", func(t *testing.T) {
		// Version 1 was a gob of the tables themselves; no reader is kept.
		_, err := ReadTables(writeVariant(t, func(d []byte) []byte { binary.LittleEndian.PutUint32(d[8:], 1); return d }))
		expect(t, err, "table store version 1 is retired")
		expect(t, err, "wwt-index")
	})
	t.Run("newer gob version", func(t *testing.T) {
		_, err := ReadTables(writeVariant(t, func(d []byte) []byte { d[8] = 42; return d }))
		expect(t, err, "format version 42")
	})
	t.Run("truncated", func(t *testing.T) {
		_, err := ReadTables(writeVariant(t, func([]byte) []byte { return []byte("WWT") }))
		expect(t, err, "too short")
	})
}

// withRetiredSections rewrites a postings file in the layout earlier builds
// wrote: sections 5 and 6 (the shard-local idf and max score, derived
// from its df and best weight) right after the term blob.
func withRetiredSections(t *testing.T, path string) {
	t.Helper()
	ff, err := openFlatFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ff.Close()
	df, bestW := view[int32](ff.secs[secDF]), view[float64](ff.secs[secBestWeight])
	idf, maxScore := make([]float64, ff.numTerms), make([]float64, ff.numTerms)
	for i := range idf {
		idf[i] = smoothedIDF(int(ff.numDocs), int64(df[i]))
		maxScore[i] = idf[i] * bestW[i]
	}
	var secs []section
	for i := 0; i < len(ff.secs); i++ {
		id := binary.LittleEndian.Uint32(ff.data[flatHeaderSize+24*i:])
		secs = append(secs, section{id, ff.secs[id]})
		if id == secTermBlob {
			secs = append(secs, section{5, rawBytes(idf)}, section{6, rawBytes(maxScore)})
		}
	}
	if err := writeFlatFile(path, uint32(ff.blockSize), ff.kind, ff.shardIndex, ff.shardCount, ff.numDocs, ff.numTerms, secs); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredSectionsIgnored: WriteDir writes neither retired section, and
// a directory whose postings files still carry them opens and answers
// probes, DocSet and TermStats bit-identically to one without.
func TestRetiredSectionsIgnored(t *testing.T) {
	_, tables := buildRandCorpus(t, 2012, 40)
	cur, old := t.TempDir(), t.TempDir()
	for _, dir := range []string{cur, old} {
		if err := WriteDir(dir, tables, 3); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < 3; g++ {
		path := filepath.Join(cur, shardFileName(g))
		ff, err := openFlatFile(path, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []uint32{5, 6} {
			if _, ok := ff.secs[id]; ok {
				t.Fatalf("%s carries retired section %d", path, id)
			}
		}
		ff.Close()
		withRetiredSections(t, filepath.Join(old, shardFileName(g)))
	}
	want, _, err := OpenSnapshot(cur)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	got, _, err := OpenSnapshot(old)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		q := randQuery(r)
		for _, k := range []int{0, 1, 10} {
			sameHitsBitIdentical(t, want.Search(q, k), got.Search(q, k), "retired sections")
		}
		for _, fs := range docSetFieldSets {
			sameDocs(t, want.DocSet(q, fs...), got.DocSet(q, fs...), fmt.Sprintf("DocSet(%v, %v)", q, fs))
		}
		for _, tok := range q {
			wdf, wpost, wok := want.TermStats(tok)
			gdf, gpost, gok := got.TermStats(tok)
			if wdf != gdf || wpost != gpost || wok != gok {
				t.Fatalf("TermStats(%q) = (%d,%d,%v), want (%d,%d,%v)", tok, gdf, gpost, gok, wdf, wpost, wok)
			}
		}
	}
}

// TestBigEndianFallback runs the copy path big-endian hosts take, with
// hostLittleEndian forced off: WriteDir must write byte-identical files
// through rawBytes' encoder, and both open paths must decode them through
// view into a searcher whose hits are bit-identical to the in-memory
// freeze.
func TestBigEndianFallback(t *testing.T) {
	ix, tables := buildRandCorpus(t, 1729, 60)
	le := t.TempDir()
	if err := WriteDir(le, tables, 3); err != nil {
		t.Fatal(err)
	}
	defer func(v bool) { hostLittleEndian = v }(hostLittleEndian)
	hostLittleEndian = false
	be := t.TempDir()
	if err := WriteDir(be, tables, 3); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{DocsFileName, shardFileName(0), shardFileName(1), shardFileName(2)} {
		a, errA := os.ReadFile(filepath.Join(le, name))
		b, errB := os.ReadFile(filepath.Join(be, name))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("%s: the encoded copy differs from the aliased bytes (%v, %v)", name, errA, errB)
		}
	}
	want := NewSearcher(ix)
	for _, noMmap := range []bool{false, true} {
		s, err := openSharded(noMmap, be)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(1730))
		for qi := 0; qi < 25; qi++ {
			q := randQuery(r)
			for _, k := range []int{0, 1, 3, 17} {
				sameHitsBitIdentical(t, want.Search(q, k), s.Search(q, k), fmt.Sprintf("noMmap=%v k=%d", noMmap, k))
			}
		}
		s.Close()
	}
}
