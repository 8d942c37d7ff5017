package sweep

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// squareJobs builds n jobs whose results encode their index, with
// deliberately uneven run times so parallel completion order scrambles.
func squareJobs(n int) []func() int {
	jobs := make([]func() int, n)
	for i := range jobs {
		jobs[i] = func() int {
			time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
			return i * i
		}
	}
	return jobs
}

// TestOrderedReassembly: results come back in job order for every
// worker count, regardless of completion order.
func TestOrderedReassembly(t *testing.T) {
	const n = 40
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 8, 64} {
		if got := Run(squareJobs(n), workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results out of order: %v", workers, got)
		}
	}
}

// TestBoundedConcurrency: no more than the requested number of jobs run
// simultaneously.
func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	jobs := make([]func() struct{}, 24)
	for i := range jobs {
		jobs[i] = func() struct{} {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
			return struct{}{}
		}
	}
	Run(jobs, workers)
	if p := peak.Load(); p > workers {
		t.Fatalf("%d jobs in flight, pool bound is %d", p, workers)
	}
}

// TestWorkersResolution covers the sizing rules.
func TestWorkersResolution(t *testing.T) {
	if w := Workers(0, 100); w < 1 {
		t.Errorf("default workers = %d", w)
	}
	if w := Workers(8, 3); w != 3 {
		t.Errorf("pool should shrink to job count: %d", w)
	}
	if w := Workers(-1, 0); w != 1 {
		t.Errorf("empty sweep still needs a floor of 1: %d", w)
	}
}

// TestEmptySweep: zero jobs is a valid, empty result.
func TestEmptySweep(t *testing.T) {
	if res := Run[int](nil, 4); len(res) != 0 {
		t.Fatalf("unexpected result for empty sweep: %v", res)
	}
}
