package core

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wwt/internal/text"
)

// TestInternerTokenSets pins the interner's token sets and strings: a
// string's set is the sorted, deduplicated IDs of its space-separated
// words (a lone token's is its own ID), and its ID maps back to it. Four
// goroutines intern overlapping strings at once and read every set back
// while the others keep interning, so under -race it also checks that a
// set handed out is never written again.
func TestInternerTokenSets(t *testing.T) {
	in := NewInterner()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				words := make([]string, 1+r.Intn(4))
				for j := range words {
					words[j] = "w" + strconv.Itoa(r.Intn(60))
				}
				s := strings.Join(words, " ")
				id := in.Intern(s)
				want := make([]uint32, len(words))
				for j, w := range words {
					want[j] = in.Lookup(w)
				}
				slices.Sort(want)
				want = slices.Compact(want)
				if got := in.tokens(id); !slices.Equal(got, want) {
					t.Errorf("tokens(%q) = %v, want %v", s, got, want)
					return
				}
				if got := in.str(id); got != s {
					t.Errorf("str(Intern(%q)) = %q", s, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if set := in.tokens(NoID); set != nil {
		t.Errorf("tokens(NoID) = %v, want nil", set)
	}
	if s := in.str(NoID); s != "" {
		t.Errorf("str(NoID) = %q, want \"\"", s)
	}
}

// FuzzCellKeyTokens pins the interned cell keys probe 2 and PMI² read in
// place of re-normalizing a cell: for any cell text, a view's CellKey
// split on ' ' is exactly text.Normalize of the cell, and the cell's ID
// is NoID exactly when it has no tokens. Two cells per row, in both
// orders, make the second sighting of each text a hit on the interner.
func FuzzCellKeyTokens(f *testing.F) {
	for _, s := range [][2]string{
		{"", "  "},
		{" Vasco da Gama ", "vasco DA gama"},
		{"the of", "Running runs\tran"},
		{"Straße İstanbul", "42 x\n"},
		{"a  b", "U.S.A."},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		v := NewTableView(table("t", nil, [][]string{{a, b}, {b, a}}, ""), nil)
		for r := 0; r < 2; r++ {
			for c := 0; c < v.NumCols; c++ {
				want := text.Normalize(v.Table.Body(r, c))
				key := v.CellKey(r, c)
				var got []string
				if key != "" {
					got = strings.Split(key, " ")
				}
				if !slices.Equal(got, want) {
					t.Fatalf("cell (%d, %d) %q: CellKey %q splits to %q, Normalize gives %q", r, c, v.Table.Body(r, c), key, got, want)
				}
				if (v.Cell(r, c) == NoID) != (len(want) == 0) {
					t.Fatalf("cell (%d, %d) %q: ID %d with %d tokens", r, c, v.Table.Body(r, c), v.Cell(r, c), len(want))
				}
			}
		}
	})
}
