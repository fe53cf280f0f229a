package core

import (
	"sync/atomic"
	"testing"
)

// TestParallelForCoversAllIndices: every index runs exactly once regardless
// of worker count.
func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			counts := make([]atomic.Int32, n)
			parallelForWorkers(n, workers, func(_, i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("%d workers, n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestParallelForPropagatesPanic: a panic inside fn must surface on the
// calling goroutine (as in the serial loop), not crash the process from a
// worker.
func TestParallelForPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
	}()
	parallelForWorkers(64, 4, func(_, i int) {
		if i == 13 {
			panic("boom")
		}
	})
	t.Fatal("parallelForWorkers returned instead of panicking")
}
