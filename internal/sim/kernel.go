// Package sim implements a deterministic discrete-event simulation kernel
// with coroutine-style processes.
//
// A Kernel owns a virtual clock and an event queue. Each simulated process
// (Proc) is a runtime coroutine (iter.Pull) with its own stack, and the
// kernel resumes exactly one at a time: a process runs until it parks on a
// virtual-time event (Sleep, Queue.Get, Cond.Wait, ...), then control
// returns to the scheduler. Switching between processes is a direct
// coroutine switch on the calling OS thread; the Go scheduler's run queue
// is never involved. Background services that never need to park
// mid-computation are better served by callback Daemons, which run
// entirely in scheduler context with no stack of their own. Combined with
// seeded random number streams this makes entire cluster simulations
// bit-for-bit reproducible, independent of GOMAXPROCS or OS scheduling.
//
// All sim API calls must be made either from a running Proc's body or
// from a closure scheduled with Kernel.After; the kernel is not safe for
// use from free-running goroutines. Distinct kernels share nothing, so
// whole simulations may run concurrently (one kernel per goroutine); the
// sweep engine in internal/sweep relies on exactly that.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Time is virtual time measured from the start of the simulation.
// It uses time.Duration's representation (nanoseconds) so the µs/ms
// helpers in package time read naturally in simulation code.
type Time = time.Duration

// Kernel is a discrete-event scheduler with a virtual clock.
type Kernel struct {
	now       Time
	events    eventQueue
	free      []*event // recycled cancelable-event records (see event.go)
	seq       uint64
	ncanceled int    // stale entries still sitting in the queue
	nexec     uint64 // events executed since New

	procs   map[int]*Proc
	pfree   []*Proc // recycled Proc structs
	daemons []*Daemon
	nextID  int
	running *Proc // proc currently executing, nil while in scheduler
	nextp   *Proc // proc whose wake fired; the root loop resumes it (see loop)
	spawned bool  // a process has existed since New or Reset

	seed    int64
	nstream int64

	// Logical-process identity, set when the kernel is one LP of a
	// partitioned simulation (see lp.go). lpmode disables the
	// every-process-finished early exit — an LP whose own ranks finished
	// must keep answering cross-LP traffic until the LPSet declares the
	// global end — and lphorizon bounds one conservative window: the
	// dispatch loop stops before executing any event at or past it.
	// Both are zero on a monolithic kernel, whose behavior is untouched.
	lp        int
	lptag     string // " [lpN]" suffix for deadlock reports, "" monolithic
	lpmode    bool
	lphorizon Time

	panicked any
	stopped  bool
	shutdown bool
}

// New returns a kernel whose random streams derive from seed: an empty
// kernel put through Reset, so a fresh kernel and a reset one are the
// same state by construction.
func New(seed int64) *Kernel {
	k := &Kernel{procs: make(map[int]*Proc)}
	k.Reset(seed)
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Events returns the number of events executed so far — the kernel's
// measure of simulation work, used by the sweep engine's throughput
// accounting.
func (k *Kernel) Events() uint64 { return k.nexec }

// NewRNG returns an independent deterministic random stream. Streams are
// numbered in creation order, so identical construction order yields
// identical streams across runs.
func (k *Kernel) NewRNG() *rand.Rand {
	k.nstream++
	return rand.New(rand.NewSource(k.seed*1000003 + k.nstream))
}

// After schedules fn to run at now+d in scheduler context. fn must not
// park (it has no process); it may schedule further events, put items on
// queues and fire conditions.
func (k *Kernel) After(d Time, fn func()) { k.push(k.now+d, funcRunner(fn)) }

// AfterRunner schedules r.RunEvent at now+d in scheduler context: the
// closure-free counterpart of After for hot paths that re-arm pooled
// Runner objects instead of allocating a closure per event.
func (k *Kernel) AfterRunner(d Time, r Runner) { k.push(k.now+d, r) }

// Spawn starts a new simulated process executing fn. The process begins
// running at the current virtual time, after already-scheduled events.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	if k.shutdown {
		panic("sim: Spawn after Shutdown")
	}
	k.nextID++
	var p *Proc
	if n := len(k.pfree); n > 0 {
		// Reuse a finished process's struct (its coroutine has returned).
		p = k.pfree[n-1]
		k.pfree[n-1] = nil
		k.pfree = k.pfree[:n-1]
		*p = Proc{k: k, id: k.nextID, name: name, intr: p.intr[:0]}
	} else {
		p = &Proc{k: k, id: k.nextID, name: name}
	}
	// The coroutine starts at the first next, when the start event below
	// fires; stop before that ends it without ever calling fn.
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run(fn)
	})
	k.procs[p.id] = p
	k.spawned = true
	p.wakeAt(k.now)
	return p
}

// releaseProc returns a finished process's struct to the spawn pool.
// Pooling is skipped while a wake event is still pending: that entry was
// never counted stale, so the struct is simply left for the GC. (In
// practice a process that ran to completion has no pending wake —
// wakeAt is the sole scheduler of proc events and the wake clears when
// it fires.)
func (k *Kernel) releaseProc(p *Proc) {
	if p.wseq != 0 {
		return
	}
	// Drop the coroutine handles: they hold the process body's closure,
	// which a pooled struct would otherwise pin until its next Spawn.
	p.next, p.yield, p.stop = nil, nil, nil
	k.pfree = append(k.pfree, p)
}

// dispatch outcomes: the loop went quiet (queue drained, horizon reached,
// Stop, panic captured, or every process finished), the calling
// process's own wake fired (control stays on its stack, no switch at
// all), or another process's wake fired and k.nextp names it for the
// root loop to resume.
const (
	dispatchQuiet = iota
	dispatchSelf
	dispatchOther
)

// dispatch runs the event loop until control must leave it. It runs on
// the root loop's stack (self == nil) and on the stack of each process
// that parks (self == that process): when the parking process's own wake
// is the next process event the loop simply returns, so a Sleep/Spin with
// no intervening process switch costs no coroutine switch at all. When
// another process's wake fires, dispatch leaves it in k.nextp and
// returns; the parking process then yields to the root loop, which
// resumes k.nextp — two coroutine switches, neither through the Go
// scheduler.
//
// Every event runs from its queue entry alone: a stale one (see stale)
// is dropped, a live one advances the clock and its target's RunEvent
// runs. A process wake's RunEvent only names the process in k.nextp.
//
// A panic in a scheduler-context callback is captured into k.panicked
// rather than propagated, so it surfaces from Run no matter which stack
// the loop happened to be running on (dispatchQuiet is the zero value the
// recovery path returns).
func (k *Kernel) dispatch(self *Proc) (res int) {
	defer func() {
		if r := recover(); r != nil && k.panicked == nil {
			k.panicked = r
		}
	}()
	for k.events.len() > 0 && !k.stopped {
		if k.lphorizon != 0 && k.events.peek().t >= k.lphorizon {
			// Conservative window boundary: events at or past the horizon
			// may still be preceded by cross-LP arrivals, so they wait for
			// the next window. (Stale entries past the horizon just sit.)
			return dispatchQuiet
		}
		e := k.events.pop()
		if stale(&e) {
			k.ncanceled--
			k.drop(&e)
			continue
		}
		if e.t < k.now {
			panic(fmt.Sprintf("sim: time went backwards: %v -> %v", k.now, e.t))
		}
		k.now = e.t
		k.nexec++
		e.target.RunEvent()
		if p := k.nextp; p != nil {
			if p == self {
				k.nextp = nil
				return dispatchSelf
			}
			return dispatchOther
		}
		if k.panicked != nil {
			return dispatchQuiet
		}
		if k.procsDone() {
			// Only callback daemons (NIC control programs, timers)
			// remain; the simulation proper is over even if they keep
			// scheduling.
			return dispatchQuiet
		}
	}
	return dispatchQuiet
}

// loop is the root of every run, shared by Run and RunWindow: it drives
// the event loop until a process must run, resumes that process, and
// takes over again when the process yields (because another process's
// wake came up, or the loop went quiet under it) or returns. Every
// reason for going quiet is state the next dispatch(nil) sees again, so
// a process that parks into a quiet loop needs no signal back: it just
// yields.
func (k *Kernel) loop() {
	for k.panicked == nil && !k.procsDone() && k.dispatch(nil) == dispatchOther {
		for k.nextp != nil {
			p := k.nextp
			k.nextp = nil
			p.next()
		}
	}
}

// Run drains the event queue. It returns the virtual time at which the
// simulation went quiet. If any live processes remain parked with no
// pending events, Run panics with a deadlock report naming each stuck
// process and its park reason.
//
// A runtime.Goexit inside a process body (t.Fatal from a rank closure)
// ends the goroutine that called Run, after the body's deferred
// functions: a coroutine's Goexit is its resumer's. That is what t.Fatal
// wants on a single kernel. Under an LPSet the resumer is the runner the
// LP is striped onto: the caller of LPSet.Run, which ends the same way,
// or a window worker, whose exit LPSet.Run raises as a panic instead
// (see LPSet.Run for the contract).
func (k *Kernel) Run() Time {
	k.loop()
	if k.panicked != nil {
		panic(k.panicked)
	}
	if !k.stopped && len(k.procs) > 0 {
		panic("sim: deadlock at t=" + k.now.String() + ":\n" + k.stuckReport())
	}
	return k.now
}

// procsDone reports whether the kernel may exit its loop because every
// process it spawned has finished and only callback daemons remain. An
// LP kernel never exits on this condition alone: ranks on other LPs may
// still send it traffic its daemons must answer, so the global verdict
// belongs to the LPSet.
func (k *Kernel) procsDone() bool { return !k.lpmode && k.spawned && len(k.procs) == 0 }

// SetLP marks the kernel as logical process lp of a partitioned
// simulation: the every-process-finished early exit is disabled (the LPSet
// decides the global end) and deadlock reports carry the LP number.
func (k *Kernel) SetLP(lp int) {
	k.lp = lp
	k.lptag = fmt.Sprintf(" [lp%d]", lp)
	k.lpmode = true
}

// NextEventTime returns the timestamp of the kernel's earliest pending
// event, skimming stale entries off the front of the queue. ok is false
// when no live events remain. Called by the LPSet between windows to
// compute the next conservative horizon.
func (k *Kernel) NextEventTime() (t Time, ok bool) {
	for k.events.len() > 0 {
		if e := k.events.peek(); !stale(e) {
			return e.t, true
		}
		k.ncanceled--
		e := k.events.pop()
		k.drop(&e)
	}
	return 0, false
}

// ScheduleRunnerAt schedules r.RunEvent at absolute virtual time t —
// the entry point for cross-LP arrivals delivered at a window barrier.
// t earlier than the kernel clock clamps to now (push's rule), but a
// conservative exchange never needs the clamp: arrivals land at or past
// the horizon, and the receiving kernel's clock cannot have passed it.
func (k *Kernel) ScheduleRunnerAt(t Time, r Runner) { k.push(t, r) }

// RunWindow drains events strictly before horizon, leaving later events
// (and any deadlock/global-end verdict) to the caller. Unlike Run it
// does not panic on captured panics or deadlock — the LPSet coordinator
// owns those, aggregated across all LPs.
func (k *Kernel) RunWindow(horizon Time) {
	k.lphorizon = horizon
	k.loop()
	k.lphorizon = 0
}

// Stop makes Run return after the current event completes. Parked
// processes stay parked; call Shutdown to release their coroutines.
func (k *Kernel) Stop() { k.stopped = true }

// procIDs returns the ids of the live processes in ascending order.
func (k *Kernel) procIDs() []int {
	ids := make([]int, 0, len(k.procs))
	for id := range k.procs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// killProcs ends every leftover process in ascending id, so the deferred
// functions of abandoned rank bodies run in the same order every time. A
// parked process unwinds out of park (see Proc.park) and runs its defers;
// one that never started just never runs. (The map is normally empty:
// ranks that ran to completion removed themselves.)
func (k *Kernel) killProcs() {
	if len(k.procs) == 0 {
		return
	}
	for _, id := range k.procIDs() {
		p := k.procs[id]
		p.killed = true
		p.stop()
		p.done = true
		delete(k.procs, id)
	}
}

// Shutdown terminates every live process (any process abandoned
// mid-park by Stop or end-of-Run), releasing their coroutines. Without
// it, each finished simulation leaks one parked coroutine (a goroutine
// and its stack) per surviving process, which adds up across the
// thousands of independent simulations a single bench process runs.
// (Callback Daemons have no stack and need no release.)
//
// Shutdown must be called from outside the simulation, after Run has
// returned (or panicked). The kernel is dead afterwards: Run must not be
// called again and Spawn panics.
func (k *Kernel) Shutdown() {
	if k.running != nil {
		panic("sim: Shutdown from inside a running process")
	}
	k.killProcs()
	k.events = eventQueue{}
	k.free = nil
	k.pfree = nil
	k.daemons = nil
	k.ncanceled = 0
	k.stopped = true
	k.shutdown = true
}

// Reset puts the kernel in its just-built state under a new seed,
// keeping allocated capacity: the record, queue-chunk and proc free
// lists and the registered callback daemons all survive, so a pooled
// cluster re-runs a program without rebuilding its machinery. Any
// process still alive (parked by Stop, or abandoned when Run went
// quiet) is killed exactly as Shutdown kills it. Unlike Shutdown the
// kernel is fully usable afterwards. New ends in Reset, so the clock,
// event sequence, executed-event counter and RNG stream numbering are
// written here only, which is what makes a reused cluster
// byte-identical to a freshly built one.
func (k *Kernel) Reset(seed int64) {
	if k.running != nil {
		panic("sim: Reset from inside a running process")
	}
	k.killProcs()
	k.sweep(true)
	k.events.scrub()
	for _, d := range k.daemons {
		d.seq = 0
		d.at = 0
		d.status = ""
	}
	k.now = 0
	k.seq = 0
	k.ncanceled = 0
	k.nexec = 0
	k.nextID = 0
	k.spawned = false
	k.stopped = false
	k.panicked = nil
	k.seed = seed
	k.nstream = 0
}

// maxStuckLines caps the per-process detail in a deadlock report. At
// 16384 nodes an uncapped report would build tens of thousands of lines
// before panicking; the first few plus a count diagnose just as well.
const maxStuckLines = 32

// stuckReport lists live processes, why they are parked and for how
// long, followed by a summary of idle callback daemons so hangs
// involving background services are diagnosable too.
func (k *Kernel) stuckReport() string {
	var b strings.Builder
	shown, omitted := 0, 0
	for _, id := range k.procIDs() {
		p := k.procs[id]
		if shown >= maxStuckLines {
			omitted++
			continue
		}
		shown++
		fmt.Fprintf(&b, "  proc %d%s %q parked on %q for %v\n", p.id, k.lptag, p.name, p.reason, k.now-p.parkAt)
	}
	if omitted > 0 {
		fmt.Fprintf(&b, "  (+%d more procs parked)\n", omitted)
	}
	idle := 0
	var csample []string
	for _, d := range k.daemons {
		if d.seq != 0 {
			continue // has a pending step; not stuck
		}
		idle++
		if len(csample) < 4 && d.status != "" {
			csample = append(csample, fmt.Sprintf("%q%s on %q", d.name, k.lptag, d.status))
		}
	}
	if idle > 0 {
		suffix := ""
		if idle > len(csample) {
			suffix = ", ..."
		}
		fmt.Fprintf(&b, "  (+%d callback daemons idle: %s%s)\n", idle, strings.Join(csample, ", "), suffix)
	}
	return b.String()
}

// LiveProcs returns the number of processes that have not finished.
func (k *Kernel) LiveProcs() int { return len(k.procs) }
