package index

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

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
		return fmt.Errorf("store load %s: this is a flat sharded index file; open its directory with index.OpenSharded instead", path)
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

// Store is the table store of Figure 2: it keeps the raw extracted tables
// addressable by ID so that the online pipeline can read the candidates a
// probe returns. Insertion order is preserved for deterministic iteration.
type Store struct {
	byID  map[string]*wtable.Table
	order []string
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{byID: make(map[string]*wtable.Table)} }

// Add inserts a table; duplicate IDs are an error.
func (s *Store) Add(t *wtable.Table) error {
	if t == nil || t.ID == "" {
		return fmt.Errorf("store: table without ID")
	}
	if _, dup := s.byID[t.ID]; dup {
		return fmt.Errorf("store: duplicate table ID %q", t.ID)
	}
	s.byID[t.ID] = t
	s.order = append(s.order, t.ID)
	return nil
}

// With returns a new store holding s's tables followed by added, leaving
// s untouched. The ID map is cloned wholesale and the order cloned once,
// so the cost is a copy of s plus the adds — not a re-add of every table.
// Errors are Add's: a table without an ID, or an ID already in s or
// repeated inside added.
func (s *Store) With(added []*wtable.Table) (*Store, error) {
	out := &Store{
		byID:  maps.Clone(s.byID),
		order: slices.Grow(slices.Clone(s.order), len(added)),
	}
	for _, t := range added {
		if err := out.Add(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Get returns the table with the given ID.
func (s *Store) Get(id string) (*wtable.Table, bool) {
	t, ok := s.byID[id]
	return t, ok
}

// Len returns the number of stored tables.
func (s *Store) Len() int { return len(s.order) }

// All returns all tables in insertion order. The slice is fresh; the tables
// are shared.
func (s *Store) All() []*wtable.Table {
	out := make([]*wtable.Table, len(s.order))
	for i, id := range s.order {
		out[i] = s.byID[id]
	}
	return out
}

// storeSnapshot is the gob wire form of a Store.
type storeSnapshot struct {
	Tables []*wtable.Table
}

// Save writes the store to path, prefixed with its magic and format
// version.
func (s *Store) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store save: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	if err := writeStoreHeader(w); err != nil {
		return fmt.Errorf("store save: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(storeSnapshot{Tables: s.All()}); err != nil {
		return fmt.Errorf("store save: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("store save: %w", err)
	}
	return f.Close()
}

// LoadStore reads a store previously written by Save, validating the
// format header first.
func LoadStore(path string) (*Store, error) {
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
	s := NewStore()
	for _, t := range snap.Tables {
		if err := s.Add(t); err != nil {
			return nil, fmt.Errorf("store load: %w", err)
		}
	}
	return s, nil
}
