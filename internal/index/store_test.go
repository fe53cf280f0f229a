package index

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"wwt/internal/wtable"
)

// storeWords is a small vocabulary, so generated tables repeat texts
// within and across tables the way extracted ones do.
var storeWords = []string{"", "Oslo", "Norway", "Lima", "Peru", "city", "country", "1921", "Capitals of the world", "  padded  "}

// randStoreTables generates n tables in the shape ReadTables returns: an
// empty row section, row or context is nil. They exercise every field the
// store keeps — title rows, ragged and empty rows, every style flag,
// shared URLs and page titles, snippets with scores.
func randStoreTables(r *rand.Rand, n int) []*wtable.Table {
	word := func() string { return storeWords[r.Intn(len(storeWords))] }
	rows := func(max int) []wtable.Row {
		var out []wtable.Row
		for i := r.Intn(max + 1); i > 0; i-- {
			var row wtable.Row
			for j := r.Intn(4); j > 0; j-- {
				c := wtable.Cell{Text: word()}
				if r.Intn(3) == 0 {
					c.Bold, c.Italic, c.Underline, c.IsTH = r.Intn(2) == 0, r.Intn(2) == 0, r.Intn(2) == 0, r.Intn(2) == 0
				}
				row.Cells = append(row.Cells, c)
			}
			out = append(out, row)
		}
		return out
	}
	tables := make([]*wtable.Table, n)
	for i := range tables {
		tb := &wtable.Table{
			ID:         fmt.Sprintf("http://p%d.example/#%d", r.Intn(3), i),
			URL:        fmt.Sprintf("http://p%d.example/", r.Intn(3)),
			PageTitle:  word(),
			TitleRows:  rows(1),
			HeaderRows: rows(2),
			BodyRows:   rows(5),
		}
		for j := r.Intn(3); j > 0; j-- {
			tb.Context = append(tb.Context, wtable.Snippet{Text: word(), Score: r.Float64()})
		}
		tables[i] = tb
	}
	return tables
}

// storeImage is the bytes writeStore puts on disk for sw.
func storeImage(t testing.TB, sw *storeWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeStore(&buf, sw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadTablesSharesStrings: within a segment each distinct text is one
// string, whichever tables and fields hold it, and each table's rows are
// capped cuts of its cell array, so growing one row cannot overwrite the
// next.
func TestReadTablesSharesStrings(t *testing.T) {
	tables := randStoreTables(rand.New(rand.NewSource(9)), 40)
	dir := t.TempDir()
	if err := WriteDir(dir, tables, 1); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTables(dir)
	if err != nil {
		t.Fatal(err)
	}
	backing := map[string]*byte{}
	shared := 0
	see := func(s string) {
		if s == "" {
			return
		}
		p := unsafe.StringData(s)
		if q, ok := backing[s]; !ok {
			backing[s] = p
		} else if q != p {
			t.Fatalf("text %q has two backings", s)
		} else {
			shared++
		}
	}
	for _, tb := range got {
		see(tb.URL)
		see(tb.PageTitle)
		var next uintptr // the address just past the previous row's cells
		for _, rows := range [][]wtable.Row{tb.TitleRows, tb.HeaderRows, tb.BodyRows} {
			for _, r := range rows {
				if cap(r.Cells) != len(r.Cells) {
					t.Fatalf("table %s: a row of %d cells has capacity %d", tb.ID, len(r.Cells), cap(r.Cells))
				}
				if len(r.Cells) == 0 {
					continue
				}
				at := uintptr(unsafe.Pointer(&r.Cells[0]))
				if next != 0 && at != next {
					t.Fatalf("table %s: rows are not cut from one cell array", tb.ID)
				}
				next = at + uintptr(len(r.Cells))*unsafe.Sizeof(wtable.Cell{})
				for _, c := range r.Cells {
					see(c.Text)
				}
			}
		}
		for _, sn := range tb.Context {
			see(sn.Text)
		}
	}
	if shared == 0 {
		t.Fatal("no text repeats; the test shows nothing")
	}
}

// TestReadTablesBadWire: a store whose counts or references do not
// resolve fails with an error that names the file, the table and the
// fault, before anything is built.
func TestReadTablesBadWire(t *testing.T) {
	clean := newStoreWire(randStoreTables(rand.New(rand.NewSource(3)), 8))
	styledTable := func(sw *storeWire) *wireTable {
		for i := range sw.Tables {
			if len(sw.Tables[i].Styles) > 0 {
				return &sw.Tables[i]
			}
		}
		t.Fatal("no table has style bytes")
		return nil
	}
	cases := []struct {
		name   string
		mutate func(sw *storeWire)
		want   string
	}{
		{"no string table", func(sw *storeWire) { sw.Strings = nil }, "does not start with the empty string"},
		{"string 0 not empty", func(sw *storeWire) { sw.Strings[0] = "x" }, "does not start with the empty string"},
		{"URL out of range", func(sw *storeWire) { sw.Tables[1].URL = uint32(len(sw.Strings)) }, "URL references string"},
		{"page title out of range", func(sw *storeWire) { sw.Tables[1].PageTitle = 1 << 31 }, "page title references string 2147483648"},
		{"cell out of range", func(sw *storeWire) {
			for i := range sw.Tables {
				if cells := sw.Tables[i].Cells; len(cells) > 1 {
					cells[1] = uint32(len(sw.Strings)) + 7
					return
				}
			}
			t.Fatal("no table has two cells")
		}, "cell 1 references string"},
		{"snippet out of range", func(sw *storeWire) {
			for i := range sw.Tables {
				if len(sw.Tables[i].Snippets) > 0 {
					sw.Tables[i].Snippets[0] = 1 << 30
					return
				}
			}
			t.Fatal("no table has context")
		}, "context snippet 0 references string 1073741824"},
		{"style byte missing", func(sw *storeWire) { st := styledTable(sw); st.Styles = st.Styles[1:] }, "style bytes stored"},
		{"style byte extra", func(sw *storeWire) { st := styledTable(sw); st.Styles = append(st.Styles, 0) }, "style bytes stored"},
		{"unknown style bit", func(sw *storeWire) { styledTable(sw).Styles[0] = 0x80 }, "unknown bits"},
		{"cell count off", func(sw *storeWire) { sw.Tables[0].Rows = append(sw.Tables[0].Rows, 2<<1) }, "cell texts stored"},
		{"section counts over rows", func(sw *storeWire) { sw.Tables[0].HeaderRows = uint32(len(sw.Tables[0].Rows)) + 1 }, "header rows of"},
		{"scores short", func(sw *storeWire) { sw.Tables[0].Scores = nil; sw.Tables[0].Snippets = []uint32{0} }, "1 context snippets, 0 scores"},
		{"empty ID", func(sw *storeWire) { sw.Tables[3].ID = "" }, "table 3 without ID"},
		{"duplicate ID", func(sw *storeWire) { sw.Tables[3].ID = sw.Tables[2].ID }, "duplicate table ID"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sw := cloneWire(clean)
			c.mutate(sw)
			_, err := readStore(bytes.NewReader(storeImage(t, sw)), "x/store.gob")
			if err == nil {
				t.Fatalf("read succeeded, want an error mentioning %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) || !strings.HasPrefix(err.Error(), "store load x/store.gob: ") {
				t.Fatalf("error %q does not name the file and %q", err, c.want)
			}
		})
	}
}

// cloneWire deep-copies a wire value through gob.
func cloneWire(sw *storeWire) *storeWire {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sw); err != nil {
		panic(err)
	}
	out := new(storeWire)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		panic(err)
	}
	return out
}

// FuzzReadTables mutates a valid store — its header, a string reference,
// a table's style bytes, its length, any byte of its body — and requires
// ReadTables to return either an error naming the store or tables equal
// to what the mutation means: the clean decode for a no-op, the clean
// decode with that one text swapped for a reference that resolves, and,
// for a raw byte flip that still decodes, tables that survive a write and
// read unchanged. It must never panic.
func FuzzReadTables(f *testing.F) {
	for op := uint8(0); op < 5; op++ {
		f.Add(int64(op), op, uint32(op)*7, uint32(op)*13)
	}
	f.Add(int64(11), uint8(2), uint32(3), uint32(1)) // a reference that resolves
	f.Add(int64(12), uint8(3), uint32(1), uint32(0))
	f.Fuzz(func(t *testing.T, seed int64, op uint8, pos, val uint32) {
		r := rand.New(rand.NewSource(seed))
		tables := randStoreTables(r, 1+r.Intn(6))
		sw := newStoreWire(tables)
		read := func(data []byte) ([]*wtable.Table, error) {
			got, err := readStore(bytes.NewReader(data), "f/store.gob")
			if err != nil && !strings.HasPrefix(err.Error(), "store load f/store.gob") {
				t.Fatalf("error %q does not name the store", err)
			}
			return got, err
		}
		clean := storeImage(t, sw)
		want, err := read(clean)
		if err != nil {
			t.Fatalf("clean store: %v", err)
		}
		if !reflect.DeepEqual(want, tables) {
			t.Fatal("clean store does not read back as written")
		}

		switch op % 5 {
		case 0: // header
			data := bytes.Clone(clean)
			data[pos%12] = byte(val)
			got, err := read(data)
			if bytes.Equal(data, clean) {
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("unchanged header: err %v", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), "wwt-index") {
				t.Fatalf("header byte %d = %#x: err %v, want one naming wwt-index", pos%12, byte(val), err)
			}
		case 1: // truncation
			n := int(pos) % len(clean)
			if _, err := read(clean[:n]); err == nil {
				t.Fatalf("store cut to %d of %d bytes read without error", n, len(clean))
			}
		case 2: // one string reference
			refs := wireRefs(sw)
			if len(refs) == 0 {
				return
			}
			i := int(pos) % len(refs)
			v := val % uint32(len(sw.Strings)+3)
			*refs[i].ref = v
			got, err := read(storeImage(t, sw))
			if int(v) >= len(sw.Strings) {
				if err == nil || !strings.Contains(err.Error(), "references string") {
					t.Fatalf("reference %d set to %d of %d strings: err %v", i, v, len(sw.Strings), err)
				}
				return
			}
			if err != nil {
				t.Fatalf("reference %d set to %d of %d strings: %v", i, v, len(sw.Strings), err)
			}
			refs[i].set(want, sw.Strings[v])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reference %d set to string %d: tables differ from the clean decode with that text", i, v)
			}
		case 3: // style bytes
			wt := &sw.Tables[int(pos)%len(sw.Tables)]
			if val%2 == 0 {
				wt.Styles = append(wt.Styles, make([]byte, 1+val%3)...)
			} else if len(wt.Styles) > 0 {
				wt.Styles = wt.Styles[:len(wt.Styles)-1]
			} else {
				return
			}
			if _, err := read(storeImage(t, sw)); err == nil || !strings.Contains(err.Error(), "style bytes stored") {
				t.Fatalf("style bytes resized: err %v", err)
			}
		case 4: // any body byte
			data := bytes.Clone(clean)
			data[12+int(pos)%(len(data)-12)] ^= byte(val) | 1
			got, err := read(data)
			if err != nil {
				return
			}
			dir := t.TempDir()
			if err := writeStore(filepath.Join(dir, TablesFileName), got); err != nil {
				t.Fatal(err)
			}
			again, err := ReadTables(dir)
			if err != nil || !reflect.DeepEqual(again, got) {
				t.Fatalf("a decoded mutant does not survive a write and read: %v", err)
			}
		}
	})
}

// wireRef is one string reference of a wire value, with the way to
// apply the text it resolves to onto the decoded tables.
type wireRef struct {
	ref *uint32
	set func(tables []*wtable.Table, s string)
}

// wireRefs lists every string reference of sw in table order.
func wireRefs(sw *storeWire) []wireRef {
	var out []wireRef
	for ti := range sw.Tables {
		wt := &sw.Tables[ti]
		out = append(out,
			wireRef{&wt.URL, func(ts []*wtable.Table, s string) { ts[ti].URL = s }},
			wireRef{&wt.PageTitle, func(ts []*wtable.Table, s string) { ts[ti].PageTitle = s }})
		ci := 0
		nt, nh := int(wt.TitleRows), int(wt.HeaderRows)
		for k, e := range wt.Rows {
			for j := 0; j < int(e>>1); j++ {
				out = append(out, wireRef{&wt.Cells[ci], func(ts []*wtable.Table, s string) {
					tb := ts[ti]
					switch {
					case k < nt:
						tb.TitleRows[k].Cells[j].Text = s
					case k < nt+nh:
						tb.HeaderRows[k-nt].Cells[j].Text = s
					default:
						tb.BodyRows[k-nt-nh].Cells[j].Text = s
					}
				}})
				ci++
			}
		}
		for j := range wt.Snippets {
			out = append(out, wireRef{&wt.Snippets[j], func(ts []*wtable.Table, s string) { ts[ti].Context[j].Text = s }})
		}
	}
	return out
}
