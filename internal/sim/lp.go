package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
)

// LPSet coordinates a set of kernels as the logical processes (LPs) of
// one partitioned simulation, using conservative synchronous windows.
//
// The protocol: between windows the coordinator computes T, the minimum
// next-event time across all LPs, and sets the horizon to T + lookahead.
// Every LP then runs its events strictly before the horizon in parallel
// — safe because any message an LP can send another during the window
// originates at t >= T and cannot demand execution on the destination
// before t + lookahead >= horizon. At the barrier the exchange hook
// delivers the window's cross-LP messages (sorted by a deterministic
// key, so arrival order never depends on goroutine interleaving), and
// the next window begins. With one LP the set degenerates to a plain
// Kernel.Run, byte-identical to the monolithic kernel.
//
// The LPs are striped over runners, LP i on runner i mod runners. Runner
// 0 is the goroutine that called Run, which is also the coordinator; the
// others are worker goroutines that live only inside Run. Kernel state
// is touched by its runner alone while a window is open and by the
// coordinator alone between windows, and the two atomic words of the
// barrier order the two: what the coordinator wrote before it advanced
// epoch is visible to a worker that has loaded the new epoch, and what
// a worker wrote before it counted pending down is visible to the
// coordinator that has loaded pending as zero (the decrements form one
// read-modify-write chain, so the zero carries every worker's writes).
type LPSet struct {
	ks        []*Kernel
	lookahead Time
	exchange  func()
	stats     LPStats // written only by the goroutine inside Run
}

// LPStats counts what the window loop has done since the set was built
// or ResetStats was last called. It describes the host's execution, not
// the simulation: Runners and Parks depend on GOMAXPROCS and on timing,
// so they belong in no result body and no fingerprint.
type LPStats struct {
	Runners int    // goroutines the latest multi-LP Run ran windows on, its caller included
	Windows uint64 // conservative windows run
	Parks   uint64 // barrier waits, over all runners, that outlasted both budgets and cost a wake-up
}

// NewLPSet builds a coordinator over ks. lookahead is the minimum
// virtual-time distance between a cross-LP send and its first effect on
// the destination LP (the inter-partition link latency); it must be
// positive when there is more than one LP or conservative windows cannot
// make progress. exchange is called at every window barrier to deliver
// the cross-LP messages the window produced (it may schedule events on
// any kernel). Each kernel is marked with its LP number for deadlock
// reports; a single-kernel set is left unmarked and stays byte-identical
// to the monolithic path.
func NewLPSet(ks []*Kernel, lookahead Time, exchange func()) *LPSet {
	if len(ks) == 0 {
		panic("sim: NewLPSet with no kernels")
	}
	if len(ks) > 1 {
		if lookahead <= 0 {
			panic("sim: NewLPSet needs positive lookahead")
		}
		for i, k := range ks {
			k.SetLP(i)
		}
	}
	return &LPSet{ks: ks, lookahead: lookahead, exchange: exchange}
}

// Stats returns the window counters. Call it between Runs.
func (s *LPSet) Stats() LPStats { return s.stats }

// ResetStats zeroes the window counters.
func (s *LPSet) ResetStats() { s.stats = LPStats{} }

// Run drains all LPs to the global end of the simulation and returns
// the virtual time of the latest LP clock. Semantics mirror Kernel.Run:
// a panic captured on any LP is re-raised (lowest LP number first), and
// live processes parked with no pending events anywhere raise a
// deadlock panic aggregating every LP's stuck report.
//
// Windows run on min(LPs, GOMAXPROCS, NumCPU) runners, the caller being
// the first; a runner beyond the CPUs that can execute it would only
// make the others wait for the OS to schedule it. With one runner Run
// starts no goroutine and the caller runs every LP's window in turn.
// Which runner an LP lands on never shows in virtual time: the set of
// events a window executes depends on the horizon alone.
//
// A runtime.Goexit inside a process body (t.Fatal from a rank closure)
// ends the goroutine that resumed the process. On a worker's LP that is
// the worker: the exit is recorded as the LP's panic ("sim: LP goroutine
// exited inside a window [lpN]") and Run raises it at the barrier. On
// the caller's own stripe it ends the caller, as Kernel.Run documents
// for a single kernel, after the workers have finished the window and
// been told to exit. Either way Run never hangs and leaks no goroutine.
func (s *LPSet) Run() Time {
	if len(s.ks) == 1 {
		return s.ks[0].Run()
	}
	runners := min(len(s.ks), runtime.GOMAXPROCS(0), runtime.NumCPU())
	s.stats.Runners = runners
	var b *barrier
	if runners > 1 {
		b = s.fork(runners)
		defer b.close()
	}

	for {
		var T Time
		any := false
		for _, k := range s.ks {
			if t, ok := k.NextEventTime(); ok && (!any || t < T) {
				T, any = t, true
			}
		}
		if !any {
			s.checkPanicked()
			if s.liveProcs() > 0 && !s.anyStopped() {
				panic("sim: deadlock at t=" + s.maxNow().String() + ":\n" + s.stuckReport())
			}
			break
		}
		horizon := T + s.lookahead
		s.stats.Windows++
		if b != nil {
			b.release(horizon)
		}
		for lp := 0; lp < len(s.ks); lp += runners {
			s.ks[lp].RunWindow(horizon)
		}
		if b != nil {
			b.join()
		}
		s.checkPanicked()
		s.exchange()
		if s.anyStopped() {
			break
		}
		if s.spawned() && s.liveProcs() == 0 {
			// Every process has finished and only callback daemons
			// remain: the simulation proper is over, matching the
			// monolithic kernel's early exit (at window granularity
			// rather than per event).
			break
		}
	}
	return s.maxNow()
}

// The wait budgets of the window barrier: a waiter re-reads its word
// spinBudget times, then yieldBudget more times with a runtime.Gosched
// between reads, and only then parks. A window is 10–90 µs of work and a
// thread wake-up costs about as much, so the budgets are sized to
// outlast the longest window a runner waits on: parking straight after
// the spin was as slow as the channel pair this barrier replaced, 1 000
// yields recovered most of the gain and 20 000 (a few ms) all of it
// (EXPERIMENTS "Performance — window barrier"). The yield keeps the
// wait cooperative: any other runnable goroutine gets the P. Variables
// and not constants only so that tests in this package can force the
// park path; fork reads them once per Run.
var (
	spinBudget  = 2000
	yieldBudget = 20000
)

// waiter is one runner's place to wait for an atomic word to reach a
// value. The flag and the one-slot channel are the slow path: a waiter
// out of budget sets parked, looks at the word once more and blocks on
// wake; whoever changes the word then swaps the flag back and sends a
// token only if it was set. The atomics are sequentially consistent, so
// either the waiter's second look sees the new value or the changer's
// swap sees the flag: no wake-up is lost, and none is paid for while
// the waiter is still spinning.
type waiter struct {
	parked atomic.Bool
	wake   chan struct{}
	_      [48]byte // one waiter per cache line
}

// await makes w wait until word holds want, and reports whether the wait
// cost a wake-up.
func (b *barrier) await(w *waiter, word *atomic.Int64, want int64) (woken bool) {
	for i := b.spin; i > 0; i-- {
		if word.Load() == want {
			return false
		}
	}
	for i := b.yield; i > 0; i-- {
		runtime.Gosched()
		if word.Load() == want {
			return false
		}
	}
	// A token answers one raising of the flag, not one value of the word:
	// a changer may be slow to send it, so a token can arrive during a
	// later wait and the word is checked again after every receive.
	for word.Load() != want {
		w.parked.Store(true)
		if word.Load() == want && w.parked.Swap(false) {
			// The word changed before anyone saw the flag: no token is
			// on its way.
			break
		}
		// Still waiting, or the changer took the flag first and its token
		// must be consumed here so that it cannot cut a later wait short.
		<-w.wake
		woken = true
	}
	return woken
}

// wakeUp is the changer's half: call it after changing the word w may be
// waiting on. It reports whether w had parked.
func (w *waiter) wakeUp() bool {
	if !w.parked.Swap(false) {
		return false
	}
	w.wake <- struct{}{} // one slot, one token per raised flag: never blocks
	return true
}

// barrier is the fork-join of one multi-runner Run. The coordinator
// (runner 0) releases a window by advancing epoch and joins it by
// waiting for pending, which every worker counts down as it finishes
// its stripe, to reach zero. The padding keeps the two words and the
// coordinator's waiter 64 bytes apart, so on different cache lines
// wherever the allocation starts: epoch's line, with the plain fields
// published through it, is written by the coordinator and read by the
// workers; pending's and the waiter's go the other way.
type barrier struct {
	epoch   atomic.Int64 // windows released so far, plus one for the final quit
	horizon Time         // of the window epoch released
	quit    bool         // the release is the last: workers exit
	_       [47]byte

	pending atomic.Int64 // workers still inside the released window
	_       [56]byte

	caller waiter

	// Fixed by fork.
	s           *LPSet
	workers     []waiter // workers[r-1] is runner r's
	spin, yield int      // the wait budgets
}

// fork starts the workers of a Run on runners runners.
func (s *LPSet) fork(runners int) *barrier {
	b := &barrier{s: s, workers: make([]waiter, runners-1), spin: spinBudget, yield: yieldBudget}
	b.caller.wake = make(chan struct{}, 1)
	for i := range b.workers {
		b.workers[i].wake = make(chan struct{}, 1)
		go b.work(i + 1)
	}
	return b
}

// release opens the window up to h for every worker.
func (b *barrier) release(h Time) {
	b.horizon = h
	b.pending.Store(int64(len(b.workers)))
	b.publish()
}

// publish advances epoch and wakes the workers that parked waiting for it.
func (b *barrier) publish() {
	b.epoch.Add(1)
	for i := range b.workers {
		if b.workers[i].wakeUp() {
			b.s.stats.Parks++
		}
	}
}

// join returns once every worker has finished the released window.
func (b *barrier) join() {
	if b.await(&b.caller, &b.pending, 0) {
		b.s.stats.Parks++
	}
}

// close ends the workers. Deferred by Run, so it also runs when a Goexit
// on the caller's stripe unwinds the caller with a window still open:
// the workers are inside kernels then, and are joined first.
func (b *barrier) close() {
	b.join()
	b.quit = true
	b.publish()
}

// arrive counts one worker out of the window; the last one wakes the
// coordinator if it parked.
func (b *barrier) arrive() {
	if b.pending.Add(-1) == 0 {
		b.caller.wakeUp()
	}
}

// work is the body of runner r > 0: wait for each release in turn and
// run the window on LPs r, r+runners, ... A runtime.Goexit inside a
// process body is propagated by the coroutine to the goroutine that
// resumed it, which is this one: the deferred function records the exit
// as the LP's panic, so checkPanicked raises it at the barrier, and
// still counts the worker out, so the coordinator gets there.
func (b *barrier) work(r int) {
	ks, stride := b.s.ks, len(b.workers)+1
	lp := -1 // the LP whose window is open on this goroutine
	defer func() {
		if lp < 0 {
			return // told to quit between windows
		}
		if k := ks[lp]; k.panicked == nil {
			k.panicked = "sim: LP goroutine exited inside a window" + k.lptag
		}
		b.arrive()
	}()
	w := &b.workers[r-1]
	for e := int64(1); ; e++ {
		b.await(w, &b.epoch, e)
		if b.quit {
			return
		}
		for lp = r; lp < len(ks); lp += stride {
			ks[lp].RunWindow(b.horizon)
		}
		lp = -1
		b.arrive()
	}
}

// checkPanicked re-raises the first captured panic in LP order.
func (s *LPSet) checkPanicked() {
	for _, k := range s.ks {
		if k.panicked != nil {
			panic(k.panicked)
		}
	}
}

func (s *LPSet) anyStopped() bool {
	for _, k := range s.ks {
		if k.stopped {
			return true
		}
	}
	return false
}

func (s *LPSet) liveProcs() int {
	live := 0
	for _, k := range s.ks {
		live += len(k.procs)
	}
	return live
}

func (s *LPSet) spawned() bool {
	for _, k := range s.ks {
		if k.spawned {
			return true
		}
	}
	return false
}

func (s *LPSet) maxNow() Time {
	var t Time
	for _, k := range s.ks {
		if k.now > t {
			t = k.now
		}
	}
	return t
}

// stuckReport aggregates each LP's stuck report; every line already
// names its LP via the kernel's lptag.
func (s *LPSet) stuckReport() string {
	var b strings.Builder
	for i, k := range s.ks {
		if len(k.procs) == 0 && len(k.daemons) == 0 {
			continue
		}
		if r := k.stuckReport(); r != "" {
			fmt.Fprintf(&b, " lp%d at t=%v:\n%s", i, k.now, r)
		}
	}
	return b.String()
}
