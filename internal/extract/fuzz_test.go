package extract

import (
	"fmt"
	"testing"

	"wwt/internal/index"
)

// FuzzExtractHTML drives the whole ingest front half with hostile markup:
// extraction must never panic, every extracted table must satisfy the
// invariants the index layer relies on (non-empty unique IDs, at least
// one body row), and the batch must round-trip through WriteDir — freeze
// to a one-shard segment, reopen, same doc count and IDs, table store
// intact and in doc order. This is exactly the path POST /v1/ingest runs on untrusted
// input.
func FuzzExtractHTML(f *testing.F) {
	f.Add("<html><body><table><tr><th>Country</th><th>Currency</th></tr>" +
		"<tr><td>France</td><td>Euro</td></tr><tr><td>Japan</td><td>Yen</td></tr></table></body></html>")
	f.Add("<table><tr><td>a<td>b<tr><td>c<td>d</table>")
	f.Add("<table><tr><td>a</td></tr><table><tr><td>nested</td><td>x</td></tr><tr><td>y</td><td>z</td></table></table>")
	f.Add("<!DOCTYPE html><title>t</title><table border=1><thead><tr><th>H</thead><tbody><tr><td>1<tr><td>2</tbody></table>")
	f.Add("<table><tr><td colspan='2' style='background:#fff'>x</td><td>&amp;&lt;&gt;</td></tr><tr><td><b>bold</b></td><td><i>i</i></td></tr></table>")
	f.Add("<table><tr></tr></table><table><tr><td></td></tr></table>")
	f.Add("<table><tr><td>\x00\xff</td><td>日本</td></tr><tr><td>β</td><td>γ</td></tr></table>")
	f.Add("<table")
	f.Add("</table><td>stray</td>")

	f.Fuzz(func(t *testing.T, src string) {
		tables := Page("http://fuzz.example/p", src, NewOptions())
		if len(tables) == 0 {
			return
		}
		seen := make(map[string]bool, len(tables))
		for _, tb := range tables {
			if tb.ID == "" {
				t.Fatal("extracted table without ID")
			}
			if seen[tb.ID] {
				t.Fatalf("duplicate table ID %q", tb.ID)
			}
			seen[tb.ID] = true
			if len(tb.BodyRows) == 0 {
				t.Fatalf("table %q extracted without body rows", tb.ID)
			}
		}

		dir := t.TempDir()
		if err := index.WriteDir(dir, tables, 1); err != nil {
			t.Fatalf("WriteDir: %v", err)
		}
		ms, _, err := index.OpenSnapshot(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer ms.Close()
		if ms.Len() != len(tables) {
			t.Fatalf("reopened segment holds %d docs, want %d", ms.Len(), len(tables))
		}
		for i, tb := range tables {
			if id := ms.IDOf(int32(i)); id != tb.ID {
				t.Fatalf("doc %d reopened as %q, want %q", i, id, tb.ID)
			}
		}
		got, err := index.ReadTables(dir)
		if err != nil {
			t.Fatalf("store reopen: %v", err)
		}
		if len(got) != len(tables) {
			t.Fatalf("store holds %d tables, want %d", len(got), len(tables))
		}
		for i, tb := range tables {
			if got[i].ID != tb.ID {
				t.Fatalf("store table %d is %q, want %q", i, got[i].ID, tb.ID)
			}
			if fmt.Sprint(got[i].BodyRows) != fmt.Sprint(tb.BodyRows) {
				t.Fatalf("table %q body rows mutated in round trip", tb.ID)
			}
		}
	})
}
