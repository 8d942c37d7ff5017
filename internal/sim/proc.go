package sim

import "fmt"

// Proc is a simulated process. Its function runs on a coroutine of its
// own, and the kernel guarantees only one Proc executes at a time; every
// blocking call (Sleep, Spin, Queue.Get, Cond.Wait) parks the coroutine
// and returns control to the scheduler until a wake event fires.
type Proc struct {
	k    *Kernel
	id   int
	name string

	// The coroutine's three handles (iter.Pull): the kernel's root loop
	// calls next to switch into the process, the process calls yield to
	// switch back when it parks, and stop ends it (see Kernel.killProcs).
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	done     bool
	killed   bool // Kernel.killProcs: ended from outside, not by returning
	panicked any
	reason   string // what the proc is parked on, for deadlock reports
	parkAt   Time   // when the proc parked, for deadlock reports

	wseq uint64 // seq + 1 of the pending wake's entry, 0 if none (see entry)

	// Signal-handler support (see Interrupt / SpinInterruptible).
	intr          []func()
	interruptible bool

	// busy accumulates virtual CPU time consumed via Spin,
	// SpinInterruptible and interrupt handlers. Layers above use it for
	// direct CPU-utilization attribution.
	busy Time
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Busy returns the virtual CPU time this process has consumed through
// Spin, SpinInterruptible and interrupt handlers.
func (p *Proc) Busy() Time { return p.busy }

// AddBusy charges d of CPU time to the process without advancing the
// clock. Layers that busy-poll inside otherwise-parked waits use it to
// attribute the wait as CPU time.
func (p *Proc) AddBusy(d Time) { p.busy += d }

// procKilled is the panic value park raises to unwind a process that
// Kernel.killProcs stopped. It is a panic and not runtime.Goexit because
// a coroutine's Goexit is propagated to whoever resumed it, which would
// end the goroutine calling Reset or Shutdown.
type procKilled struct{}

// run executes the process body on its coroutine, catching panics so they
// surface from Kernel.Run. The deferred handler also runs when
// Kernel.killProcs unwinds the process mid-park (procKilled is swallowed
// here): a killed process leaves the bookkeeping to killProcs, while one
// that completed removes itself. Either way returning from run ends the
// coroutine and control is back in whoever resumed it: the root loop,
// which dispatches onward, or killProcs.
func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, kill := r.(procKilled); !kill {
				p.panicked = fmt.Sprintf("sim: proc %q panicked: %v", p.name, r)
			}
		}
		p.done = true
		if p.killed {
			return
		}
		k := p.k
		delete(k.procs, p.id)
		if p.panicked != nil && k.panicked == nil {
			k.panicked = p.panicked
		}
		k.running = nil
		// The struct is dead from here on: pool it for a later Spawn.
		k.releaseProc(p)
	}()
	fn(p)
}

// park returns control to the scheduler until a wake event resumes this
// process. The event loop first continues on this stack (dispatch with
// self == p): if this process's own wake is the next process event, park
// returns without any switch. Otherwise the process yields to the root
// loop, which resumes whichever process dispatch named, or finds the loop
// quiet. reason appears in deadlock reports. If the process is killed
// while parked, park does not return: it unwinds the body with a
// procKilled panic, running the body's deferred functions.
func (p *Proc) park(reason string) {
	k := p.k
	if k.running != p {
		panic(fmt.Sprintf("sim: park of %q from outside its own context", p.name))
	}
	p.reason = reason
	p.parkAt = k.now
	k.running = nil
	if k.panicked != nil || k.procsDone() || k.dispatch(p) != dispatchSelf {
		// Control goes elsewhere; a wake event brings it back.
		if !p.yield(struct{}{}) {
			panic(procKilled{})
		}
	}
	p.reason = ""
}

// procWake is a process as the target of its wake's queue entry.
type procWake Proc

// RunEvent fires the wake: the process is made the running one and
// named in k.nextp, for dispatch to hand control to. A process killed
// while its wake was queued stays down.
func (w *procWake) RunEvent() {
	p := (*Proc)(w)
	p.wseq = 0
	if !p.done {
		p.k.running = p
		p.k.nextp = p
	}
}

// wakeAt schedules this process to resume at time t. It is idempotent
// while a wake is already pending, so racing wake sources (Put plus
// timeout, Broadcast plus Interrupt) cannot double-resume a process.
// The wake's entry targets the process itself; its stamp wseq names
// that entry, so zeroing it cancels the wake (see Interrupt).
func (p *Proc) wakeAt(t Time) {
	if p.wseq != 0 {
		return
	}
	p.wseq = p.k.push(t, (*procWake)(p)) + 1
}

// sleepUntil parks this process until t. When its wake would be the next
// event to run anyway, the clock is advanced straight to it instead
// (runAhead).
func (p *Proc) sleepUntil(t Time, reason string) {
	if !p.runAhead(t) {
		p.wakeAt(t)
		p.park(reason)
	}
}

// runAhead moves the clock straight to t, the wake of the running
// process, when that wake would be the next event to pop: nothing queued
// can come at or before t (a queued key at t has the lower seq), the
// process has no other wake pending, and dispatch would not stop first
// (Stop, a captured panic, or t at or past the LP horizon). It spends a
// seq and counts the event, as the pushed and popped wake would have
// done, so the pop order of every later event and Events() are
// unchanged. It reports whether it did.
func (p *Proc) runAhead(t Time) bool {
	k := p.k
	if p.wseq != 0 || k.stopped || k.panicked != nil ||
		(k.lphorizon != 0 && t >= k.lphorizon) || !k.events.above(t) {
		return false
	}
	k.now = t
	k.seq++
	k.nexec++
	return true
}

// Sleep advances this process's local time by d without consuming CPU
// (other processes run meanwhile).
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		p.Yield()
		return
	}
	p.sleepUntil(p.k.now+d, "sleep")
}

// Spin busy-waits for d: the same as Sleep in virtual time, but the time
// is charged as CPU (Busy). Use it for compute loops, polling costs and
// injected overheads.
func (p *Proc) Spin(d Time) {
	p.busy += d
	p.Sleep(d)
}

// Yield reschedules the process after all events already pending at the
// current time.
func (p *Proc) Yield() {
	p.wakeAt(p.k.now)
	p.park("yield")
}

// Interrupt queues fn to run on p's stack, in virtual time, at p's next
// interruptible point. If p is currently inside SpinInterruptible, the
// spin is preempted immediately (the remaining spin time still executes
// afterwards, so handler time extends p's elapsed time exactly like a
// Unix signal stealing cycles from an application busy loop).
//
// Interrupt may be called from any proc or scheduler context except p's
// own running context.
func (p *Proc) Interrupt(fn func()) {
	p.intr = append(p.intr, fn)
	if p.interruptible && p.wseq != 0 {
		// Preempt the interruptible sleep: fire the wake now.
		p.wseq = 0
		p.k.staled()
		p.wakeAt(p.k.now)
	}
}

// runInterrupts executes queued handlers on this proc's stack. Handler
// virtual time is charged to Busy.
func (p *Proc) runInterrupts() {
	for len(p.intr) > 0 {
		fn := p.intr[0]
		// Shift down instead of re-slicing so the backing array stays
		// anchored and future appends reuse it (the queue is almost
		// always length 1, so the copy is trivial).
		copy(p.intr, p.intr[1:])
		p.intr[len(p.intr)-1] = nil
		p.intr = p.intr[:len(p.intr)-1]
		t0 := p.k.now
		b0 := p.busy
		fn()
		// Charge wall time spent in the handler as CPU unless the
		// handler already charged it via Spin.
		elapsed := p.k.now - t0
		charged := p.busy - b0
		if charged < elapsed {
			p.busy += elapsed - charged
		}
	}
}

// SpinInterruptible busy-spins for d of application work, servicing
// queued interrupts as they arrive. The call returns only after the full
// d of application work has executed; handler executions extend the
// elapsed virtual time beyond d. Returns the total elapsed time.
func (p *Proc) SpinInterruptible(d Time) Time {
	start := p.k.now
	remaining := d
	for {
		p.runInterrupts()
		if remaining <= 0 {
			break
		}
		t0 := p.k.now
		p.interruptible = true
		p.sleepUntil(t0+remaining, "spin-interruptible")
		p.interruptible = false
		slept := p.k.now - t0
		if slept > remaining {
			slept = remaining
		}
		p.busy += slept
		remaining -= slept
	}
	return p.k.now - start
}
