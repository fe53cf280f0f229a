package lru

import (
	"sync"
	"testing"
)

func TestGetComputesOncePerKey(t *testing.T) {
	c := New[string, int](4)
	calls := 0
	get := func(k string) int {
		return c.Get(k, func() int { calls++; return len(k) })
	}
	if got := get("ab"); got != 2 {
		t.Fatalf("Get = %d, want 2", got)
	}
	if got := get("ab"); got != 2 || calls != 1 {
		t.Fatalf("warm Get = %d with %d computes, want 2 with 1", got, calls)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1 hit / 1 miss", hits, misses)
	}
}

func TestEvictionKeepsBoundAndRecency(t *testing.T) {
	c := New[int, int](2)
	for _, k := range []int{1, 2, 1, 3} { // 2 is the LRU when 3 arrives
		c.Get(k, func() int { return -k })
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	recomputed := false
	if v := c.Get(1, func() int { recomputed = true; return -1 }); v != -1 || recomputed {
		t.Errorf("key 1 evicted despite being recently used")
	}
	c.Get(2, func() int { recomputed = true; return -2 })
	if !recomputed {
		t.Errorf("key 2 not evicted")
	}
}

func TestConcurrentGet(t *testing.T) {
	c := New[int, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 32
				if v := c.Get(k, func() int { return k * k }); v != k*k {
					t.Errorf("Get(%d) = %d", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNewRejectsNonPositiveCapacity: a non-positive bound would silently
// disable the cache (every insert immediately evicted); New must refuse it
// loudly instead.
func TestNewRejectsNonPositiveCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", capacity)
				}
			}()
			New[int, int](capacity)
		}()
	}
}

// TestRacingDuplicateInsert drives the duplicate-insert path
// deterministically by re-entering Get from inside compute (compute runs
// outside the cache lock, so a nested Get stands in for the racing
// goroutine). The losing computer must be served the canonical first-won
// value, count a hit, and refresh the entry's recency.
func TestRacingDuplicateInsert(t *testing.T) {
	c := New[int, int](2)
	f := func(k int) func() int { return func() int { return -k } }
	c.Get(2, f(2)) // [2]
	got := c.Get(1, func() int {
		c.Get(1, func() int { return 10 }) // the "racer" wins the insert: [1 2]
		c.Get(2, f(2))                     // hit, demotes 1: [2 1]
		return 99                          // the losing duplicate value
	})
	if got != 10 {
		t.Fatalf("duplicate insert returned %d, want the winning value 10", got)
	}
	// The duplicate-insert path must have refreshed key 1 ([1 2]), so
	// inserting 3 evicts 2, not 1.
	c.Get(3, f(3))
	recomputed := false
	c.Get(1, func() int { recomputed = true; return -1 })
	if recomputed {
		t.Errorf("key 1 evicted: duplicate-insert path did not refresh recency")
	}
	if hits, misses := c.Stats(); hits != 3 || misses != 4 {
		t.Errorf("stats = %d/%d, want 3 hits / 4 misses", hits, misses)
	}
}
