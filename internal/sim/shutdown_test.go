package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestShutdownReleasesGoroutines is the leak regression test: many
// back-to-back simulations, each leaving Stop-abandoned processes
// parked, must not accumulate goroutines once Shutdown runs.
func TestShutdownReleasesGoroutines(t *testing.T) {
	base := countGoroutines()
	for i := 0; i < 100; i++ {
		k := New(int64(i))
		leaveParked(k)
		k.Shutdown()
	}
	waitGoroutines(t, base)
}

// TestResetReleasesGoroutines: Reset kills leftovers exactly as Shutdown
// does, so a pooled kernel re-armed a hundred times holds no coroutine of
// an earlier run either.
func TestResetReleasesGoroutines(t *testing.T) {
	base := countGoroutines()
	k := New(0)
	for i := 0; i < 100; i++ {
		leaveParked(k)
		k.Reset(int64(i + 1))
		if k.LiveProcs() != 0 {
			t.Fatalf("%d live procs after Reset", k.LiveProcs())
		}
	}
	waitGoroutines(t, base)
}

func countGoroutines() int {
	runtime.GC()
	return runtime.NumGoroutine()
}

// leaveParked runs a small simulation on k that ends with two
// Stop-abandoned processes still parked, one on a queue and one
// mid-sleep.
func leaveParked(k *Kernel) {
	q := NewQueue[int]("work")
	k.Spawn("server", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	k.Spawn("stuck", func(p *Proc) { p.Sleep(time.Hour) })
	k.Spawn("main", func(p *Proc) {
		p.Sleep(time.Millisecond)
		k.Stop()
	})
	k.Run()
}

// waitGoroutines fails the test unless the goroutine count returns to
// base (plus slack for runtime helpers); it polls briefly first, since
// unrelated goroutines of the test binary may still be winding down.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := countGoroutines(); n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", base, countGoroutines())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownIdempotentAndSpawnPanics: double Shutdown is harmless;
// Spawn afterwards is a programming error.
func TestShutdownAfterRun(t *testing.T) {
	k := New(1)
	k.Spawn("p", func(p *Proc) { p.Sleep(time.Microsecond) })
	k.Run()
	k.Shutdown()
	k.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn after Shutdown should panic")
		}
	}()
	k.Spawn("late", func(p *Proc) {})
}

// TestShutdownKillsNeverStartedProc: a process spawned but never resumed
// (its start event still pending when Run stops) must also be released
// without running its body.
func TestShutdownKillsNeverStartedProc(t *testing.T) {
	k := New(1)
	ran := false
	k.Stop() // Run returns immediately; the start event never fires
	k.Spawn("never", func(p *Proc) { ran = true })
	k.Run()
	k.Shutdown()
	if ran {
		t.Fatal("killed process body ran")
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("%d live procs after Shutdown", k.LiveProcs())
	}
}

// TestKillUnwindsParkedProc: a process parked in Queue.Get and killed by
// Reset runs its deferred function exactly once and never executes the
// statement after the Get; the unwind is not a process panic.
func TestKillUnwindsParkedProc(t *testing.T) {
	k := New(1)
	q := NewQueue[int]("never")
	defers, after := 0, false
	p := k.Spawn("waiter", func(p *Proc) {
		defer func() { defers++ }()
		q.Get(p)
		after = true
	})
	k.After(time.Microsecond, k.Stop)
	k.Run()
	if defers != 0 || p.done {
		t.Fatalf("before Reset: defers=%d done=%v, want a parked process", defers, p.done)
	}
	k.Reset(2)
	if defers != 1 {
		t.Errorf("deferred function ran %d times, want 1", defers)
	}
	if after {
		t.Error("statement after the killed Get executed")
	}
	if !p.done || p.panicked != nil {
		t.Errorf("killed process: done=%v panicked=%v, want done and not panicked", p.done, p.panicked)
	}
	// The kernel is as good as new.
	k.Spawn("next", func(p *Proc) { p.Sleep(time.Microsecond) })
	if end := k.Run(); end != time.Microsecond {
		t.Errorf("run after Reset ended at %v", end)
	}
	k.Shutdown()
	if defers != 1 {
		t.Errorf("deferred function ran again: %d", defers)
	}
}

// TestKillSurvivesRecover: a body that recover()s the kill unwind has
// swallowed it, but the process still ends (its body returns) and neither
// it nor the kernel is reported as panicked.
func TestKillSurvivesRecover(t *testing.T) {
	k := New(1)
	q := NewQueue[int]("never")
	var recovered any
	p := k.Spawn("catcher", func(p *Proc) {
		defer func() { recovered = recover() }()
		q.Get(p)
	})
	k.After(time.Microsecond, k.Stop)
	k.Run()
	k.Shutdown()
	if recovered == nil {
		t.Error("body's recover saw no unwind")
	}
	if !p.done || p.panicked != nil || k.panicked != nil {
		t.Errorf("done=%v proc panicked=%v kernel panicked=%v", p.done, p.panicked, k.panicked)
	}
	if k.LiveProcs() != 0 {
		t.Errorf("%d live procs after Shutdown", k.LiveProcs())
	}
}

// TestKillOrderAscending: Reset and Shutdown stop leftover processes in
// ascending id, so the deferred functions of abandoned ranks run in the
// same order every time (enough processes that map order would differ).
func TestKillOrderAscending(t *testing.T) {
	const n = 64
	for _, kill := range []struct {
		name string
		fn   func(k *Kernel)
	}{
		{"Reset", func(k *Kernel) { k.Reset(2) }},
		{"Shutdown", (*Kernel).Shutdown},
	} {
		k := New(1)
		var order []int
		for i := 0; i < n; i++ {
			k.Spawn("rank", func(p *Proc) {
				defer func() { order = append(order, p.id) }()
				p.Sleep(time.Hour)
			})
		}
		k.After(time.Microsecond, k.Stop)
		k.Run()
		kill.fn(k)
		if len(order) != n {
			t.Fatalf("%s: %d deferred functions ran, want %d", kill.name, len(order), n)
		}
		for i, id := range order {
			if id != i+1 {
				t.Fatalf("%s: kill order %v, want ascending ids", kill.name, order)
			}
		}
	}
}

// TestStuckReportIncludesDaemons: the deadlock report summarizes idle
// callback daemons so NIC-control-program hangs are diagnosable.
func TestStuckReportIncludesDaemons(t *testing.T) {
	k := New(1)
	for i := 0; i < 6; i++ {
		k.NewDaemon("lanai", func() {}).SetStatus("ctrl")
	}
	k.Spawn("rank0", func(p *Proc) { NewQueue[int]("recv").Get(p) })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg := r.(string)
		if !strings.Contains(msg, `"rank0"`) {
			t.Errorf("report missing stuck proc: %s", msg)
		}
		if !strings.Contains(msg, "+6 callback daemons idle") {
			t.Errorf("report missing daemon summary: %s", msg)
		}
		if !strings.Contains(msg, ", ...") {
			t.Errorf("report should elide daemons past the sample: %s", msg)
		}
		k.Shutdown()
	}()
	k.Run()
}
