// Package sweep executes grids of independent simulations across a
// bounded worker pool.
//
// One figure of the paper's evaluation is hundreds of self-contained
// simulation runs: each builds its own kernel, cluster and RNG streams
// from an explicit seed and shares nothing with its neighbours. A job
// models exactly that — a closure that is a pure function of what it
// captured — which makes the grid embarrassingly parallel.
//
// Determinism guarantee: Run reassembles results positionally, so
// result i always belongs to job i no matter which worker computed it
// or in what order jobs finished. With pure jobs, output is bit-for-bit
// identical for any worker count, including 1 (serial).
package sweep

import (
	"runtime"
	"sync"
)

// Workers resolves a requested worker count: n <= 0 means GOMAXPROCS,
// and a pool never exceeds the number of jobs.
func Workers(n, jobs int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Run executes jobs on a pool of workers (<= 0 selects GOMAXPROCS; 1
// runs them serially on the caller's goroutine) and returns their
// results in job order. Each job must be pure: it builds its entire
// world from what it captured and touches no shared state.
func Run[T any](jobs []func() T, workers int) []T {
	workers = Workers(workers, len(jobs))
	out := make([]T, len(jobs))
	if workers == 1 {
		for i, job := range jobs {
			out[i] = job()
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = jobs[i]()
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
