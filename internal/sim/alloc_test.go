package sim

import "testing"

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
