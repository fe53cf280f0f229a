package index

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"wwt/internal/wtable"
)

// writeStoreHeader prefixes a store snapshot with its 8-byte magic and
// uint32 format version, so a later open of a stale or foreign file fails
// fast with a clear error instead of a decoder error deep in the stack.
func writeStoreHeader(w io.Writer) error {
	var hdr [12]byte
	copy(hdr[:8], storeMagic)
	binary.LittleEndian.PutUint32(hdr[8:], storeVersion)
	_, err := w.Write(hdr[:])
	return err
}

// checkStoreHeader validates the magic+version header of a store
// snapshot, diagnosing the common mix-ups precisely: a flat index file, a
// retired gob index snapshot, a pre-versioning legacy file, or foreign
// data.
func checkStoreHeader(r io.Reader, path string) error {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("store load %s: file too short for a format header (not a wwt store file, or written before format versioning — rebuild with wwt-index)", path)
	}
	switch got := string(hdr[:8]); got {
	case storeMagic:
	case flatMagic:
		return fmt.Errorf("store load %s: this is a flat sharded index file, not a table store; rebuild the directory with wwt-index", path)
	case retiredIndexMagic:
		return fmt.Errorf("store load %s: this is a wwt index snapshot (%s), a retired format, not a store; rebuild the directory with wwt-index", path, got)
	default:
		return fmt.Errorf("store load %s: bad magic %q — not a wwt store file, or written before format versioning; rebuild with wwt-index", path, got)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != storeVersion {
		return fmt.Errorf("store load %s: format version %d, this build supports %d; rebuild with wwt-index", path, v, storeVersion)
	}
	return nil
}

// TablesFileName is the gob table store each index directory and segment
// carries beside its flat files: the directory's tables in doc order.
const TablesFileName = "store.gob"

// WriteDir freezes tables into dir as an index directory: the flat index
// (nShards postings shards) plus the table store. Doc numbers follow slice
// order, so the store lists the tables in the order the doc table does.
// It fails before writing anything on a shard count outside
// [1, MaxShards], a nil table, an empty or duplicate ID (Build), or a
// shard over the int32 section bound. On success every file is synced,
// and so are dir and the parent entry naming it, so a manifest committed
// afterwards never names a segment a crash could lose.
func WriteDir(dir string, tables []*wtable.Table, nShards int) error {
	if nShards < 1 || nShards > MaxShards {
		return fmt.Errorf("index write: shard count %d out of range, want 1 to %d", nShards, MaxShards)
	}
	ix, err := Build(tables)
	if err != nil {
		return fmt.Errorf("index write: %w", err)
	}
	if err := writeSegment(dir, freezeSegment(ix, nShards)); err != nil {
		return err
	}
	if err := writeStore(filepath.Join(dir, TablesFileName), tables); err != nil {
		return err
	}
	for _, d := range []string{dir, filepath.Dir(dir)} {
		if err := syncDir(d); err != nil {
			return fmt.Errorf("index write: %w", err)
		}
	}
	return nil
}

// storeSnapshot is the gob wire form of a directory's tables.
type storeSnapshot struct {
	Tables []*wtable.Table
}

// writeStore writes tables to path, prefixed with the store magic and
// format version, and syncs the file.
func writeStore(path string, tables []*wtable.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store save: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	if err := writeStoreHeader(w); err != nil {
		return fmt.Errorf("store save: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(storeSnapshot{Tables: tables}); err != nil {
		return fmt.Errorf("store save: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("store save: %w", err)
	}
	if err := fsync(f); err != nil {
		return fmt.Errorf("store save: %w", err)
	}
	return f.Close()
}

// ReadTables reads the tables of an index directory written by WriteDir,
// in doc order, validating the store's format header first. A nil table,
// an empty ID or an ID listed twice is an error.
func ReadTables(dir string) ([]*wtable.Table, error) {
	path := filepath.Join(dir, TablesFileName)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store load: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	if err := checkStoreHeader(r, path); err != nil {
		return nil, err
	}
	var snap storeSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("store load: %w", err)
	}
	seen := make(map[string]bool, len(snap.Tables))
	for _, t := range snap.Tables {
		if t == nil || t.ID == "" {
			return nil, fmt.Errorf("store load %s: table without ID", path)
		}
		if seen[t.ID] {
			return nil, fmt.Errorf("store load %s: duplicate table ID %q", path, t.ID)
		}
		seen[t.ID] = true
	}
	return snap.Tables, nil
}
