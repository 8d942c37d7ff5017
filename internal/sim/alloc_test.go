package sim

import (
	"testing"
	"time"
	"unsafe"
)

// nop is a package-level event body so measuring loops don't allocate a
// fresh closure per scheduled event.
func nop() {}

// TestScheduleCancelZeroAlloc: in steady state, arming a timer and
// canceling it costs no heap allocations — the event comes from the pool
// and the canceled entry recycles when popped.
func TestScheduleCancelZeroAlloc(t *testing.T) {
	k := New(1)
	for i := 0; i < 32; i++ { // warm the event pool
		k.cancel(k.schedule(k.now+Time(i+1), nop))
	}
	k.Run()
	if avg := testing.AllocsPerRun(200, func() {
		ev := k.schedule(k.now+100, nop)
		k.cancel(ev)
		k.Run()
	}); avg != 0 {
		t.Errorf("schedule+cancel allocates %.2f per cycle in steady state, want 0", avg)
	}
}

// TestScheduleExecuteZeroAlloc: scheduling and firing a plain event is
// allocation-free once the pool is warm.
func TestScheduleExecuteZeroAlloc(t *testing.T) {
	k := New(1)
	for i := 0; i < 32; i++ {
		k.schedule(k.now+Time(i+1), nop)
	}
	k.Run()
	if avg := testing.AllocsPerRun(200, func() {
		k.schedule(k.now+100, nop)
		k.Run()
	}); avg != 0 {
		t.Errorf("schedule+execute allocates %.2f per cycle in steady state, want 0", avg)
	}
}

// TestSleepZeroAllocSteadyState: the dominant kernel operation — a
// process scheduling its own wake and parking — allocates nothing. A solo
// process's Sleep never even switches coroutines: park runs the event
// loop on the process's own stack, its own wake is the next event, and
// dispatch returns control inline.
func TestSleepZeroAllocSteadyState(t *testing.T) {
	k := New(1)
	avg := -1.0
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 32; i++ { // warm pool and scheduler
			p.Sleep(1)
		}
		avg = testing.AllocsPerRun(200, func() { p.Sleep(1) })
	})
	k.Run()
	k.Shutdown()
	if avg != 0 {
		t.Errorf("Sleep allocates %.2f per call in steady state, want 0", avg)
	}
}

// TestSwitchZeroAllocSteadyState: the other park, the one that does
// leave its stack, allocates nothing either. Two processes sleep on a
// common tick, so each Sleep finds the other's wake next: it yields to
// the root loop, which resumes the other process, and comes back the
// same way.
func TestSwitchZeroAllocSteadyState(t *testing.T) {
	k := New(1)
	avg := -1.0
	finished := false
	ticks, ticksDuring := 0, 0
	k.Spawn("other", func(p *Proc) {
		for !finished {
			ticks++
			p.Sleep(1)
		}
	})
	k.Spawn("measured", func(p *Proc) {
		for i := 0; i < 32; i++ { // warm pool and scheduler
			p.Sleep(1)
		}
		before := ticks
		avg = testing.AllocsPerRun(200, func() { p.Sleep(1) })
		ticksDuring = ticks - before
		finished = true
	})
	k.Run()
	k.Shutdown()
	if ticksDuring < 200 {
		t.Fatalf("the other process ran %d times during 200 Sleeps: not the switch path", ticksDuring)
	}
	if avg != 0 {
		t.Errorf("a Sleep that switches away and back allocates %.2f per call, want 0", avg)
	}
}

// TestEventAndEntrySizes pins the two structs the queue is made of. The
// key lives in the 24-byte entry, so an event fits the 48-byte size
// class; a field that pushes it past 48 bytes lands it back in the
// 80-byte class every scheduled event pays for.
func TestEventAndEntrySizes(t *testing.T) {
	if s := unsafe.Sizeof(event{}); s > 48 {
		t.Fatalf("event is %d bytes, want at most 48", s)
	}
	if s := unsafe.Sizeof(entry{}); s != 24 {
		t.Fatalf("queue entry is %d bytes, want 24: (t, seq) and the event", s)
	}
}

// TestManyPendingZeroAlloc: with several chunks' worth of events
// pending, the flow grid's shape (timers re-arming with spread delays),
// scheduling and executing allocate nothing once warm: the queue's
// chunks come back from its free list as buckets empty and refill.
func TestManyPendingZeroAlloc(t *testing.T) {
	k := New(1)
	left := 1 << 62
	ts := make([]queueTimer, 4*chunkLen)
	for i := range ts {
		ts[i] = queueTimer{k: k, delay: Time(1000 + i*7919%1000), left: &left}
		k.AfterRunner(ts[i].delay, &ts[i])
	}
	h := Time(0)
	for i := 0; i < 100; i++ { // warm the pools
		h += 10 * time.Microsecond
		k.RunWindow(h)
	}
	before := k.Events()
	if avg := testing.AllocsPerRun(100, func() {
		h += 10 * time.Microsecond
		k.RunWindow(h)
	}); avg != 0 {
		t.Errorf("a window of timer events allocates %.2f in steady state, want 0", avg)
	}
	if ran := k.Events() - before; ran < 100*uint64(len(ts)) {
		t.Fatalf("%d events in 101 windows, want at least %d", ran, 100*len(ts))
	}
}

// TestResetReusesQueueMemory: Reset with 10 000 events pending, then
// scheduling the same 10 000 again, allocates nothing: the events come
// back from the event pool and the queue's chunks from its free list.
func TestResetReusesQueueMemory(t *testing.T) {
	const n = 10000
	k := New(1)
	fill := func() {
		for i := 0; i < n; i++ {
			k.schedule(Time(i*7919%n)*time.Nanosecond, nop)
		}
	}
	fill()
	if avg := testing.AllocsPerRun(5, func() {
		k.Reset(1)
		fill()
	}); avg != 0 {
		t.Errorf("Reset with %d events pending and a refill allocate %.0f objects, want 0", n, avg)
	}
	if got := k.events.len(); got != n {
		t.Fatalf("queue holds %d entries, want %d", got, n)
	}
}
