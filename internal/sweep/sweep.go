// Package sweep executes grids of independent simulations across a
// bounded worker pool.
//
// One figure of the paper's evaluation is hundreds of self-contained
// simulation runs: each builds its own kernel, cluster and RNG streams
// from an explicit seed and shares nothing with its neighbours. A Job
// models exactly that — a pure function of its declared parameters and
// seed producing a Point — which makes the grid embarrassingly parallel.
//
// Determinism guarantee: Run reassembles results positionally, so
// Points[i] always belongs to Jobs[i] no matter which worker computed it
// or in what order jobs finished. With pure jobs, output is bit-for-bit
// identical for any worker count, including 1 (serial). Only the Perf
// block — wall-clock, peak live heap — varies between runs.
package sweep

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// Job is one independent simulation run. Run must be pure: it builds its
// entire world (kernel, cluster, RNG streams) from its captured spec and
// Seed, touches no shared state, and returns its result plus the number
// of simulated events it executed.
type Job[T any] struct {
	Name string // for diagnostics; "fig6/skew=300us/ab/n=4"
	Seed int64
	Run  func() (T, uint64)
}

// Point is one completed job: its value plus the events it executed.
type Point[T any] struct {
	Value  T
	Events uint64 // simulated events the job executed
}

// Perf summarizes what a sweep cost to execute; it is reporting-only and
// never part of rendered tables (which must stay byte-identical across
// worker counts).
type Perf struct {
	Wall   time.Duration // elapsed wall-clock for the whole sweep
	Events uint64        // simulated events across all jobs

	// LivePeak is the largest live heap observed while the sweep ran:
	// /gc/heap/live:bytes, the heap the last GC cycle marked reachable,
	// sampled every 25 ms plus once at each end. Garbage not yet
	// collected is not in it, so it reads what the runs need rather
	// than how far the GC let the heap grow — the number that decides
	// whether a 1M-node point fits on the machine at all.
	LivePeak uint64
}

// Result pairs a sweep's points (in job order) with its execution
// summary.
type Result[T any] struct {
	Points []Point[T]
	Perf   Perf
}

// Values returns the job results alone, in job order.
func (r *Result[T]) Values() []T {
	vs := make([]T, len(r.Points))
	for i, p := range r.Points {
		vs[i] = p.Value
	}
	return vs
}

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

// Sweep is an ordered set of independent jobs — one declared grid.
type Sweep[T any] struct {
	Name string
	Jobs []Job[T]
}

// Run executes the sweep on a pool of workers (<= 0 selects GOMAXPROCS)
// and returns the points in job order.
func (s Sweep[T]) Run(workers int) *Result[T] {
	workers = Workers(workers, len(s.Jobs))
	points := make([]Point[T], len(s.Jobs))
	livePeak := LiveBytes()
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		// Low-rate sampler; 25 ms catches every GC cycle of a grid cell
		// that lives long enough to matter, and reading a runtime
		// metric does not stop the world.
		defer close(watchDone)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopWatch:
				return
			case <-tick.C:
				livePeak = max(livePeak, LiveBytes())
			}
		}
	}()
	start := time.Now()
	if workers <= 1 {
		for i := range s.Jobs {
			points[i] = runJob(s.Jobs[i])
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					points[i] = runJob(s.Jobs[i])
				}
			}()
		}
		for i := range s.Jobs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	perf := Perf{Wall: time.Since(start)}
	close(stopWatch)
	<-watchDone
	perf.LivePeak = max(livePeak, LiveBytes())
	for i := range points {
		perf.Events += points[i].Events
	}
	return &Result[T]{Points: points, Perf: perf}
}

// Run is the convenience form: execute jobs as a named sweep.
func Run[T any](name string, jobs []Job[T], workers int) *Result[T] {
	return Sweep[T]{Name: name, Jobs: jobs}.Run(workers)
}

// LiveBytes reads the heap the last GC cycle marked live.
func LiveBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runJob executes one job.
func runJob[T any](j Job[T]) Point[T] {
	v, events := j.Run()
	return Point[T]{Value: v, Events: events}
}
