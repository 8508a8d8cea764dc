package region

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"perseus/internal/grid"
)

// DefaultWorkers returns the planner's evaluation parallelism: one
// worker per GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// parallelFor runs fn(worker, index) for every index in [0, n) across
// at most `workers` goroutines. Indices are handed out atomically and
// each worker id runs on exactly one goroutine, so per-worker scratch
// needs no locking. workers <= 1 (or n <= 1) runs inline.
func parallelFor(workers, n int, fn func(worker, index int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
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
}

// evalScratch is one worker's private evaluation state — compile
// buffers plus a reusable grid solver — shared by every candidate that
// worker evaluates.
type evalScratch struct {
	compileScratch
	solver grid.Solver
}

// outcome is a light evaluation result: the fields candidate
// comparison reads, without the materialized plan the commit path
// needs.
type outcome struct {
	cost     float64 // objective incl. migration; only valid when feasible
	coverage float64
	feasible bool
}

// betterOutcome mirrors eval.better on light results; bOK is false
// when there is no incumbent yet.
func betterOutcome(a, b outcome, bOK bool) bool {
	if !bOK {
		return true
	}
	if a.feasible != b.feasible {
		return a.feasible
	}
	if a.feasible {
		return a.cost < b.cost-1e-9*(1+math.Abs(b.cost))
	}
	if math.Abs(a.coverage-b.coverage) > 1e-9*(1+b.coverage) {
		return a.coverage > b.coverage
	}
	return a.cost < b.cost-1e-9*(1+math.Abs(b.cost))
}
