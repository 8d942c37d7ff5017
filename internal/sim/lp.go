package sim

import (
	"fmt"
	"strings"
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
// Kernel state is only touched by its worker goroutine while a window
// runs; the coordinator reads and mutates kernels strictly between the
// done-receive and the next start-send, so the channel pair provides all
// ordering the memory model needs.
type LPSet struct {
	ks        []*Kernel
	lookahead Time
	exchange  func()
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

// Run drains all LPs to the global end of the simulation and returns
// the virtual time of the latest LP clock. Semantics mirror Kernel.Run:
// a panic captured on any LP is re-raised (lowest LP number first), and
// live processes parked with no pending events anywhere raise a
// deadlock panic aggregating every LP's stuck report.
func (s *LPSet) Run() Time {
	if len(s.ks) == 1 {
		return s.ks[0].Run()
	}
	n := len(s.ks)
	start := make([]chan Time, n)
	done := make(chan struct{}, n)
	for i := range s.ks {
		start[i] = make(chan Time)
		go func(k *Kernel, start <-chan Time) {
			for h := range start {
				runWindow(k, h, done)
			}
		}(s.ks[i], start[i])
	}
	defer func() {
		for i := range start {
			close(start[i])
		}
	}()

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
			if s.liveND() > 0 && !s.anyStopped() {
				panic("sim: deadlock at t=" + s.maxNow().String() + ":\n" + s.stuckReport())
			}
			break
		}
		horizon := T + s.lookahead
		for i := range start {
			start[i] <- horizon
		}
		for i := 0; i < n; i++ {
			<-done
		}
		s.checkPanicked()
		s.exchange()
		if s.anyStopped() {
			break
		}
		if s.ndEver() && s.liveND() == 0 {
			// Only daemons remain anywhere: the simulation proper is over,
			// matching the monolithic kernel's early exit (at window
			// granularity rather than per event).
			break
		}
	}
	return s.maxNow()
}

// runWindow runs one window of k on its worker goroutine and signals
// done however the window ends. A runtime.Goexit inside a process body
// (t.Fatal from a rank closure) is propagated by the coroutine to the
// goroutine that resumed it, which is this worker: without the deferred
// signal the coordinator would wait on done forever. The exit is
// recorded as the LP's panic, so checkPanicked raises it at the barrier.
func runWindow(k *Kernel, horizon Time, done chan<- struct{}) {
	returned := false
	defer func() {
		if !returned && k.panicked == nil {
			k.panicked = "sim: LP goroutine exited inside a window" + k.lptag
		}
		done <- struct{}{}
	}()
	k.RunWindow(horizon)
	returned = true
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

func (s *LPSet) liveND() int {
	live := 0
	for _, k := range s.ks {
		live += k.ndCount
	}
	return live
}

func (s *LPSet) ndEver() bool {
	for _, k := range s.ks {
		if k.ndEver {
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
