package index

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"wwt/internal/wtable"
)

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
	switch v := binary.LittleEndian.Uint32(hdr[8:]); v {
	case storeVersion:
	case retiredStoreVersion:
		return fmt.Errorf("store load %s: table store version %d is retired, this build reads only version %d; rebuild the directory with wwt-index",
			path, v, storeVersion)
	default:
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

// storeWire is the gob value of a version-2 table store: the segment's
// distinct texts, once each, and its tables in doc order with every text
// but the (unique) table ID as an index into Strings.
type storeWire struct {
	Strings []string // Strings[0] == ""
	Tables  []wireTable
}

// wireTable is one table of a version-2 store.
type wireTable struct {
	ID             string
	URL, PageTitle uint32 // Strings indexes
	// The first TitleRows of Rows are title rows, the next HeaderRows
	// header rows, the rest body rows.
	TitleRows, HeaderRows uint32
	Rows                  []uint32  // per row: cell count<<1, |1 when the row has style bytes
	Cells                 []uint32  // cell texts (Strings indexes), row-major
	Styles                []byte    // one per cell of each styled row, row-major
	Snippets              []uint32  // context snippet texts (Strings indexes)
	Scores                []float64 // context snippet scores
}

// Style-byte bits: a cell's formatting markers.
const (
	styleBold = 1 << iota
	styleItalic
	styleUnderline
	styleTH
	styleBits = styleBold | styleItalic | styleUnderline | styleTH
)

func styleByte(c wtable.Cell) byte {
	var b byte
	if c.Bold {
		b |= styleBold
	}
	if c.Italic {
		b |= styleItalic
	}
	if c.Underline {
		b |= styleUnderline
	}
	if c.IsTH {
		b |= styleTH
	}
	return b
}

// newStoreWire lays tables out in the version-2 wire form, numbering the
// distinct texts in first-use order.
func newStoreWire(tables []*wtable.Table) *storeWire {
	sw := &storeWire{Strings: []string{""}, Tables: make([]wireTable, len(tables))}
	refs := map[string]uint32{"": 0}
	ref := func(s string) uint32 {
		r, ok := refs[s]
		if !ok {
			r = uint32(len(sw.Strings))
			refs[s] = r
			sw.Strings = append(sw.Strings, s)
		}
		return r
	}
	for i, tb := range tables {
		wt := &sw.Tables[i]
		wt.ID, wt.URL, wt.PageTitle = tb.ID, ref(tb.URL), ref(tb.PageTitle)
		wt.TitleRows, wt.HeaderRows = uint32(len(tb.TitleRows)), uint32(len(tb.HeaderRows))
		for _, rows := range [][]wtable.Row{tb.TitleRows, tb.HeaderRows, tb.BodyRows} {
			for _, r := range rows {
				styled := slices.ContainsFunc(r.Cells, func(c wtable.Cell) bool { return styleByte(c) != 0 })
				e := uint32(len(r.Cells)) << 1
				if styled {
					e |= 1
				}
				wt.Rows = append(wt.Rows, e)
				for _, c := range r.Cells {
					wt.Cells = append(wt.Cells, ref(c.Text))
					if styled {
						wt.Styles = append(wt.Styles, styleByte(c))
					}
				}
			}
		}
		for _, sn := range tb.Context {
			wt.Snippets = append(wt.Snippets, ref(sn.Text))
			wt.Scores = append(wt.Scores, sn.Score)
		}
	}
	return sw
}

// writeStore writes tables to path, prefixed with the store magic and
// format version, and syncs the file.
func writeStore(path string, tables []*wtable.Table) error {
	sw := newStoreWire(tables)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store save: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	if err := encodeStore(w, sw); err != nil {
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

// encodeStore writes sw prefixed with the store's 8-byte magic and
// uint32 format version, so a later open of a stale or foreign file fails
// fast with a clear error instead of a decoder error deep in the stack.
func encodeStore(w io.Writer, sw *storeWire) error {
	var hdr [12]byte
	copy(hdr[:8], storeMagic)
	binary.LittleEndian.PutUint32(hdr[8:], storeVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(sw)
}

// ReadTables reads the tables of an index directory written by WriteDir,
// in doc order, validating the store's format header first. Equal texts
// within the directory share one string, and each table's cells sit in
// one array its rows are cut from. A nil table, an empty ID, an ID
// listed twice or any reference the store cannot resolve is an error.
func ReadTables(dir string) ([]*wtable.Table, error) {
	path := filepath.Join(dir, TablesFileName)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store load: %w", err)
	}
	defer f.Close()
	return readStore(bufio.NewReaderSize(f, 1<<20), path)
}

// readStore decodes a store image read from r; path names it in errors.
func readStore(r io.Reader, path string) ([]*wtable.Table, error) {
	if err := checkStoreHeader(r, path); err != nil {
		return nil, err
	}
	var sw storeWire
	if err := gob.NewDecoder(r).Decode(&sw); err != nil {
		return nil, fmt.Errorf("store load %s: %w", path, err)
	}
	if len(sw.Strings) == 0 || sw.Strings[0] != "" {
		return nil, fmt.Errorf("store load %s: string table does not start with the empty string", path)
	}
	out := make([]*wtable.Table, len(sw.Tables))
	seen := make(map[string]bool, len(sw.Tables))
	for i := range sw.Tables {
		wt := &sw.Tables[i]
		if wt.ID == "" {
			return nil, fmt.Errorf("store load %s: table %d without ID", path, i)
		}
		if seen[wt.ID] {
			return nil, fmt.Errorf("store load %s: duplicate table ID %q", path, wt.ID)
		}
		seen[wt.ID] = true
		tb, err := wt.table(sw.Strings)
		if err != nil {
			return nil, fmt.Errorf("store load %s: table %q: %w", path, wt.ID, err)
		}
		out[i] = tb
	}
	return out, nil
}

// table rebuilds one table over the store's string table, checking every
// count and reference before it allocates.
func (wt *wireTable) table(strs []string) (*wtable.Table, error) {
	badRef := func(what string, ref uint32) error {
		return fmt.Errorf("%s references string %d of %d", what, ref, len(strs))
	}
	if uint64(wt.URL) >= uint64(len(strs)) {
		return nil, badRef("URL", wt.URL)
	}
	if uint64(wt.PageTitle) >= uint64(len(strs)) {
		return nil, badRef("page title", wt.PageTitle)
	}
	tb := &wtable.Table{ID: wt.ID, URL: strs[wt.URL], PageTitle: strs[wt.PageTitle]}
	nt, nh := uint64(wt.TitleRows), uint64(wt.HeaderRows)
	if nt+nh > uint64(len(wt.Rows)) {
		return nil, fmt.Errorf("%d title and %d header rows of %d rows", nt, nh, len(wt.Rows))
	}
	var nCells, nStyled uint64
	for _, e := range wt.Rows {
		nCells += uint64(e >> 1)
		if e&1 != 0 {
			nStyled += uint64(e >> 1)
		}
	}
	if nCells != uint64(len(wt.Cells)) {
		return nil, fmt.Errorf("rows hold %d cells, %d cell texts stored", nCells, len(wt.Cells))
	}
	if nStyled != uint64(len(wt.Styles)) {
		return nil, fmt.Errorf("styled rows hold %d cells, %d style bytes stored", nStyled, len(wt.Styles))
	}
	if len(wt.Snippets) != len(wt.Scores) {
		return nil, fmt.Errorf("%d context snippets, %d scores", len(wt.Snippets), len(wt.Scores))
	}

	cells := make([]wtable.Cell, len(wt.Cells))
	for j, ref := range wt.Cells {
		if uint64(ref) >= uint64(len(strs)) {
			return nil, badRef(fmt.Sprintf("cell %d", j), ref)
		}
		cells[j].Text = strs[ref]
	}
	rows := make([]wtable.Row, len(wt.Rows))
	c, s := 0, 0
	for k, e := range wt.Rows {
		n := int(e >> 1)
		if n > 0 {
			rows[k].Cells = cells[c : c+n : c+n]
		}
		if e&1 != 0 {
			for j, b := range wt.Styles[s : s+n] {
				if b&^styleBits != 0 {
					return nil, fmt.Errorf("cell %d style byte %#x sets unknown bits", c+j, b)
				}
				cell := &cells[c+j]
				cell.Bold, cell.Italic = b&styleBold != 0, b&styleItalic != 0
				cell.Underline, cell.IsTH = b&styleUnderline != 0, b&styleTH != 0
			}
			s += n
		}
		c += n
	}
	cut := func(lo, hi int) []wtable.Row {
		if lo == hi {
			return nil
		}
		return rows[lo:hi:hi]
	}
	t, h := int(nt), int(nt+nh)
	tb.TitleRows, tb.HeaderRows, tb.BodyRows = cut(0, t), cut(t, h), cut(h, len(rows))
	if len(wt.Snippets) > 0 {
		tb.Context = make([]wtable.Snippet, len(wt.Snippets))
		for j, ref := range wt.Snippets {
			if uint64(ref) >= uint64(len(strs)) {
				return nil, badRef(fmt.Sprintf("context snippet %d", j), ref)
			}
			tb.Context[j] = wtable.Snippet{Text: strs[ref], Score: wt.Scores[j]}
		}
	}
	return tb, nil
}
