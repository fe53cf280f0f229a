package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// numWorkers returns the worker count for n iterations: GOMAXPROCS, capped
// at n — the size callers give their per-worker scratch array.
func numWorkers(n int) int {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// parallelForWorkers runs fn(w, i) for every i in [0, n) across a pool of
// workers. Iterations must be independent and write only to disjoint
// indices of any shared output, which keeps results deterministic
// regardless of scheduling; a result must not depend on which worker ran
// it. fn may freely use the w-th slot of per-worker scratch, since each
// worker runs its iterations sequentially. The caller passes workers
// (normally numWorkers(n)) explicitly so its scratch array and the pool
// size cannot disagree, even if GOMAXPROCS changes mid-call. One worker
// or n < 2 falls through to a plain loop.
func parallelForWorkers(n, workers int, fn func(worker, i int)) {
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			// A panic in a worker goroutine would kill the process; capture
			// the first one and rethrow it on the calling goroutine so
			// callers see the same panic the serial loop would raise.
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
