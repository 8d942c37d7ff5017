package sweep

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// squareJobs builds n jobs whose results encode their index, with
// deliberately uneven run times so parallel completion order scrambles.
func squareJobs(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Name: fmt.Sprintf("sq/%d", i),
			Seed: int64(i),
			Run: func() (int, uint64) {
				time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
				return i * i, uint64(i)
			},
		}
	}
	return jobs
}

// TestOrderedReassembly: points come back in job order for every worker
// count, regardless of completion order.
func TestOrderedReassembly(t *testing.T) {
	const n = 40
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 8, 64} {
		res := Run("squares", squareJobs(n), workers)
		if got := res.Values(); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results out of order: %v", workers, got)
		}
	}
}

// TestPerfAccounting: events aggregate exactly for any worker count;
// wall clock and peak live heap are recorded. The live heap reads 0
// until a GC cycle has marked it, so one runs first.
func TestPerfAccounting(t *testing.T) {
	runtime.GC()
	for _, workers := range []int{1, 4} {
		res := Run("acct", squareJobs(10), workers)
		if res.Perf.Events != 45 { // 0+1+...+9
			t.Errorf("workers=%d: events = %d, want 45", workers, res.Perf.Events)
		}
		if res.Perf.Wall <= 0 || res.Perf.LivePeak == 0 {
			t.Errorf("workers=%d: cost not recorded: %+v", workers, res.Perf)
		}
	}
}

// TestBoundedConcurrency: no more than the requested number of jobs run
// simultaneously.
func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	jobs := make([]Job[struct{}], 24)
	for i := range jobs {
		jobs[i] = Job[struct{}]{Run: func() (struct{}, uint64) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
			return struct{}{}, 0
		}}
	}
	Run("bounded", jobs, workers)
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
	res := Run[int]("empty", nil, 4)
	if len(res.Points) != 0 || res.Perf.Events != 0 {
		t.Fatalf("unexpected result for empty sweep: %+v", res)
	}
}
