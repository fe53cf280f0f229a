package index

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeShardedDir builds a small corpus and writes an n-shard flat index,
// returning the directory and the frozen searcher it came from.
func writeShardedDir(t *testing.T, n int) (string, *Searcher) {
	t.Helper()
	ix, _ := buildRandCorpus(t, 99, 12)
	s := NewSearcher(ix)
	dir := t.TempDir()
	if err := WriteSharded(dir, s, n, WriteShardedOptions{}); err != nil {
		t.Fatal(err)
	}
	return dir, s
}

// expectOpenError asserts OpenSharded fails mentioning want.
func expectOpenError(t *testing.T, dir, want string) {
	t.Helper()
	ss, err := OpenSharded(dir)
	if err == nil {
		ss.Close()
		t.Fatalf("OpenSharded succeeded, want error mentioning %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenSharded error %q does not mention %q", err, want)
	}
}

// TestOpenShardedErrors: every corruption mode must fail with a precise,
// actionable message — and a directory without a flat index must wrap
// fs.ErrNotExist so callers can tell a missing index from a corrupt one.
func TestOpenShardedErrors(t *testing.T) {
	t.Run("missing", func(t *testing.T) {
		_, err := OpenSharded(t.TempDir())
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("error %v does not wrap fs.ErrNotExist", err)
		}
	})
	t.Run("missing shard file", func(t *testing.T) {
		dir, _ := writeShardedDir(t, 2)
		if err := os.Remove(filepath.Join(dir, shardFileName(1))); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "shard file postings-001.wwt missing")
		if _, err := OpenSharded(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("missing shard error %v does not wrap fs.ErrNotExist", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		dir, _ := writeShardedDir(t, 1)
		if err := os.Truncate(filepath.Join(dir, DocsFileName), 10); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "smaller than")
	})
	t.Run("bad magic", func(t *testing.T) {
		dir, _ := writeShardedDir(t, 1)
		if err := os.WriteFile(filepath.Join(dir, DocsFileName), []byte("PNG-DATA-and-then-some-more-bytes-padding-it-out-past-the-header"), 0o644); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "bad magic")
	})
	t.Run("newer version", func(t *testing.T) {
		dir, _ := writeShardedDir(t, 1)
		path := filepath.Join(dir, DocsFileName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[8] = 99 // version field
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "version 99")
	})
	t.Run("gob file as flat index", func(t *testing.T) {
		dir, _ := writeShardedDir(t, 1)
		ix, _ := buildRandCorpus(t, 1, 3)
		if err := ix.Save(filepath.Join(dir, DocsFileName)); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "gob index snapshot")
	})
	t.Run("kind mix-up", func(t *testing.T) {
		dir, _ := writeShardedDir(t, 1)
		postings, err := os.ReadFile(filepath.Join(dir, shardFileName(0)))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, DocsFileName), postings, 0o644); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "want doc table")
	})
	t.Run("mixed builds", func(t *testing.T) {
		// A shard file from a 3-shard build dropped into a 2-shard
		// directory must be rejected by the header cross-check.
		dir, s := writeShardedDir(t, 2)
		other := t.TempDir()
		if err := WriteSharded(other, s, 3, WriteShardedOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(filepath.Join(other, shardFileName(1)), filepath.Join(dir, shardFileName(1))); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "different builds")
	})
	t.Run("v2 zero block size", func(t *testing.T) {
		// A v2 postings file whose header declares block size 0 is corrupt:
		// the block geometry would be undefined.
		dir, _ := writeShardedDir(t, 1)
		path := filepath.Join(dir, shardFileName(0))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[44], data[45], data[46], data[47] = 0, 0, 0, 0 // block-size field
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "block size 0")
	})
	t.Run("v2 missing block sections", func(t *testing.T) {
		// A v1-bodied postings file whose header claims v2 must fail on the
		// absent block-summary sections, not open with silent misbehavior.
		ix, _ := buildRandCorpus(t, 99, 12)
		s := NewSearcher(ix)
		dir := t.TempDir()
		if err := WriteSharded(dir, s, 1, WriteShardedOptions{FormatVersion: 1}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, shardFileName(0))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(data[:8], flatMagicV2)
		data[8] = flatFormatVersion2 // version field (little-endian u32)
		data[44] = DefaultBlockSize  // block-size field
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "missing section 32")
	})
}

// TestWriteShardedWithErrors: invalid write options and over-limit corpora
// must fail with precise versioned errors before any file is written.
func TestWriteShardedWithErrors(t *testing.T) {
	ix, _ := buildRandCorpus(t, 99, 12)
	s := NewSearcher(ix)
	expectWriteError := func(t *testing.T, opts WriteShardedOptions, want string) {
		t.Helper()
		dir := t.TempDir()
		err := WriteSharded(dir, s, 1, opts)
		if err == nil {
			t.Fatalf("WriteSharded succeeded, want error mentioning %q", want)
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
	t.Run("unsupported version", func(t *testing.T) {
		expectWriteError(t, WriteShardedOptions{FormatVersion: 3}, "version 3 not supported")
	})
	t.Run("negative block size", func(t *testing.T) {
		expectWriteError(t, WriteShardedOptions{BlockSize: -4}, "requires a positive block size, got -4")
	})
	t.Run("postings over section bound", func(t *testing.T) {
		old := maxSectionInt32
		maxSectionInt32 = 8 // force the int32 section-offset bound down
		defer func() { maxSectionInt32 = old }()
		expectWriteError(t, WriteShardedOptions{}, "over the int32 section-offset bound")
	})
}

// TestGobHeaderErrors: the gob snapshots' magic/version headers must
// diagnose mix-ups and stale files precisely.
func TestGobHeaderErrors(t *testing.T) {
	dir := t.TempDir()
	ix, tables := buildRandCorpus(t, 7, 5)
	st := NewStore()
	for _, tb := range tables {
		if err := st.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	ixPath := filepath.Join(dir, "index.gob")
	stPath := filepath.Join(dir, "store.gob")
	if err := ix.Save(ixPath); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(stPath); err != nil {
		t.Fatal(err)
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
		if _, err := Load(ixPath); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadStore(stPath); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("store to Load", func(t *testing.T) {
		_, err := Load(stPath)
		expect(t, err, "wwt table store")
	})
	t.Run("index to LoadStore", func(t *testing.T) {
		_, err := LoadStore(ixPath)
		expect(t, err, "wwt index snapshot")
	})
	t.Run("flat file to Load", func(t *testing.T) {
		flatDir, _ := writeShardedDir(t, 1)
		_, err := Load(filepath.Join(flatDir, DocsFileName))
		expect(t, err, "flat sharded index")
	})
	t.Run("legacy headerless gob", func(t *testing.T) {
		// A pre-versioning snapshot starts with gob's own framing, not our
		// magic.
		legacy := filepath.Join(dir, "legacy.gob")
		data, err := os.ReadFile(ixPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(legacy, data[12:], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Load(legacy)
		expect(t, err, "rebuild with wwt-index")
	})
	t.Run("newer gob version", func(t *testing.T) {
		data, err := os.ReadFile(ixPath)
		if err != nil {
			t.Fatal(err)
		}
		data[8] = 42
		newer := filepath.Join(dir, "newer.gob")
		if err := os.WriteFile(newer, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Load(newer)
		expect(t, err, "format version 42")
	})
	t.Run("truncated", func(t *testing.T) {
		short := filepath.Join(dir, "short.gob")
		if err := os.WriteFile(short, []byte("WWT"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(short)
		expect(t, err, "too short")
	})
}
