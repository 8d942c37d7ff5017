package sim

import (
	"testing"
	"time"
	"unsafe"
)

// nop is a package-level event body so measuring loops don't allocate a
// fresh closure per scheduled event.
func nop() {}

// TestScheduleCancelZeroAlloc: in steady state, arming a Timer and
// stopping it costs no heap allocations: the timer lives by value and
// its stale entry is dropped when popped.
func TestScheduleCancelZeroAlloc(t *testing.T) {
	k := New(1)
	var tm Timer
	tm.Init(k, funcRunner(nop))
	for i := 0; i < 32; i++ { // warm the queue's chunks
		tm.Set(k.now + Time(i+1))
		tm.Stop()
	}
	k.Run()
	if avg := testing.AllocsPerRun(200, func() {
		tm.Set(k.now + 100)
		tm.Stop()
		k.Run()
	}); avg != 0 {
		t.Errorf("Set+Stop allocates %.2f per cycle in steady state, want 0", avg)
	}
}

// TestScheduleExecuteZeroAlloc: scheduling and firing a plain closure
// event (After, whose entry targets the closure itself) and a Timer is
// allocation-free once the queue is warm.
func TestScheduleExecuteZeroAlloc(t *testing.T) {
	k := New(1)
	var tm Timer
	tm.Init(k, funcRunner(nop))
	for i := 0; i < 32; i++ {
		k.After(Time(i+1), nop)
	}
	k.Run()
	if avg := testing.AllocsPerRun(200, func() {
		k.After(100, nop)
		tm.Set(k.now + 100)
		k.Run()
	}); avg != 0 {
		t.Errorf("schedule+execute allocates %.2f per cycle in steady state, want 0", avg)
	}
}

// TestSleepZeroAllocSteadyState: the dominant kernel operation — a
// process sleeping — allocates nothing. A solo process's Sleep does not
// even touch the queue: its wake would be the next event, so the clock
// moves straight to it (runAhead), and its Spin loop leaves the queue
// empty throughout.
func TestSleepZeroAllocSteadyState(t *testing.T) {
	k := New(1)
	avg := -1.0
	queued := -1
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 32; i++ { // warm pool and scheduler
			p.Sleep(1)
		}
		avg = testing.AllocsPerRun(200, func() { p.Sleep(1) })
		queued = 0
		for i := 0; i < 100; i++ {
			p.Spin(1)
			queued = max(queued, k.events.len())
		}
	})
	k.Run()
	k.Shutdown()
	if avg != 0 {
		t.Errorf("Sleep allocates %.2f per call in steady state, want 0", avg)
	}
	if queued != 0 {
		t.Errorf("a lone process's Spin loop queued up to %d entries, want 0", queued)
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

// TestEventAndEntrySizes pins the structs the queue is made of. An
// entry is its key and its target, 32 bytes, and chunkLen of them plus
// the chunk header fill the 768-byte size class with no room for one
// more; a wider entry or a longer chunk lands every chunk in the
// 896-byte class.
func TestEventAndEntrySizes(t *testing.T) {
	if s := unsafe.Sizeof(entry{}); s != 32 {
		t.Fatalf("queue entry is %d bytes, want 32: (t, seq) and the target", s)
	}
	if s := unsafe.Sizeof(chunk{}); s > 768 || s+unsafe.Sizeof(entry{}) <= 768 {
		t.Fatalf("chunk is %d bytes, want the most that fits 768", s)
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

// TestResetReusesQueueMemory: Reset with 10 000 timers pending, then
// arming the same 10 000 again, allocates nothing: the queue's chunks
// come back from its free list. Each timer is re-Inited after the Reset,
// as its holder's own reset would.
func TestResetReusesQueueMemory(t *testing.T) {
	const n = 10000
	k := New(1)
	ts := make([]Timer, n)
	fill := func() {
		for i := range ts {
			ts[i].Init(k, funcRunner(nop))
			ts[i].Set(Time(i*7919%n) * time.Nanosecond)
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

// TestResetScrubsFreeChunks: a released chunk keeps its stale entries
// while the run goes on, but once the kernel is Reset no free chunk
// names a target of the run before.
func TestResetScrubsFreeChunks(t *testing.T) {
	k := New(1)
	for i := 0; i < 10*chunkLen; i++ {
		k.After(Time(i*7919%1000), nop)
	}
	k.Run()
	k.Reset(1)
	n := 0
	for c := k.events.free; c != nil; c = c.next {
		n++
		for i := range c.e {
			if c.e[i].target != nil {
				t.Fatalf("free chunk %d entry %d still names a target after Reset", n, i)
			}
		}
	}
	if n == 0 {
		t.Fatal("no free chunks after the run: the test is vacuous")
	}
}
