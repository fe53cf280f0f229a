package core

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestInternerTokenSets pins the interner's token sets: a string's set is
// the sorted, deduplicated IDs of its space-separated words (a lone
// token's is its own ID). Four goroutines intern overlapping strings at
// once and read every set back while the others keep interning, so under
// -race it also checks that a set handed out is never written again.
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
			}
		}(g)
	}
	wg.Wait()
	if set := in.tokens(NoID); set != nil {
		t.Errorf("tokens(NoID) = %v, want nil", set)
	}
}
