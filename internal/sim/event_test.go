package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestCanceledEventCompaction: once canceled timers outnumber live
// events the heap compacts, instead of carrying dead entries until their
// far-future pop.
func TestCanceledEventCompaction(t *testing.T) {
	k := New(1)
	ts := make([]Timer, 1000)
	for i := range ts {
		ts[i].Init(k, funcRunner(nop))
		ts[i].Set(Time(i+1) * time.Millisecond)
	}
	for i := range ts[:900] {
		ts[i].Stop()
	}
	if k.events.len() > 200 {
		t.Fatalf("heap holds %d entries after canceling 900 of 1000", k.events.len())
	}
	if live := k.events.len() - k.ncanceled; live != 100 {
		t.Fatalf("%d live entries, want 100", live)
	}
	k.Run()
	if got := k.Events(); got != 100 {
		t.Fatalf("executed %d events, want the 100 live ones", got)
	}
}

// TestCompactionPreservesOrder: compaction must not perturb the (t, seq)
// pop order that determinism rests on.
func TestCompactionPreservesOrder(t *testing.T) {
	k := New(1)
	var fired []int
	ts := make([]Timer, 300)
	for i := range ts {
		ts[i].Init(k, funcRunner(func() { fired = append(fired, 300-i) }))
		ts[i].Set(Time(300-i) * time.Microsecond)
	}
	// Cancel two thirds to force at least one compaction pass.
	for i := range ts {
		if i%3 != 0 {
			ts[i].Stop()
		}
	}
	k.Run()
	if len(fired) != 100 {
		t.Fatalf("%d events fired, want 100", len(fired))
	}
	for j := 1; j < len(fired); j++ {
		if fired[j] < fired[j-1] {
			t.Fatalf("events fired out of order: %d after %d", fired[j], fired[j-1])
		}
	}
}

// TestStaleCancelIsHarmless: stopping a timer whose firing has already
// run cancels nothing and counts nothing stale, and the timer re-arms
// afterwards as if it had never been stopped.
func TestStaleCancelIsHarmless(t *testing.T) {
	k := New(1)
	fired := 0
	var tm Timer
	tm.Init(k, funcRunner(func() { fired++ }))
	tm.Set(time.Microsecond)
	k.Spawn("canceler", func(p *Proc) {
		p.Sleep(2 * time.Microsecond) // the timer has fired
		tm.Stop()
		if tm.Pending() || k.ncanceled != 0 {
			t.Errorf("a stale Stop left pending=%v and %d stale entries, want false and 0", tm.Pending(), k.ncanceled)
		}
		tm.Set(p.Now() + time.Microsecond)
		p.Sleep(2 * time.Microsecond) // keep the sim alive until it fires
	})
	k.Run()
	if fired != 2 || k.ncanceled != 0 {
		t.Fatalf("fired %d times with %d stale entries; a stale Stop must be a no-op", fired, k.ncanceled)
	}
}

// The kinds of queue entry TestQueueMatchesSortedOracle schedules, by
// what can make one stale.
const (
	kindPlain = iota // ScheduleRunnerAt: no handle, never stale
	kindTimer        // a Timer firing: a replacing Set or a Stop
	kindWake         // a process wake: Interrupt on an interruptible spin
	kindStep         // a daemon step: a WakeAt pull-in
	kinds
)

// oracleEntry is the sorted reference's copy of a queued entry.
type oracleEntry struct {
	t     Time
	seq   uint64
	kind  int
	who   int // kindTimer, kindWake, kindStep: the timer, process or daemon
	stale bool
}

// TestQueueMatchesSortedOracle drives the event queue through seeded
// random sequences of schedules of every entry kind (plain Runners, Timer
// firings, process wakes and daemon steps), pops in dispatch's way,
// peeks, schedules below the last minimum taken, cancels of every kind
// that has one (a Set replacing a pending firing, Stop, Interrupt on an
// interruptible spin, Daemon.WakeAt pulling a step in) with the
// compaction they trigger, Stops with nothing pending, and Kernel.Reset.
// It checks every popped and peeked (t, seq), whether a popped entry is
// stale, the queue length and the stale count against a sorted slice,
// every stamp against the entry the oracle says it names, and that the
// queue never reports itself above its own minimum (the bound runAhead
// trusts).
func TestQueueMatchesSortedOracle(t *testing.T) {
	const seeds, steps = 300, 3000
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New(seed)
		// Processes that are never resumed, only woken: their wakes are
		// queue entries like any other. A timer's firing and a daemon
		// step run nop.
		procs := make([]*Proc, 4)
		for i := range procs {
			procs[i] = &Proc{k: k, interruptible: true}
		}
		timers := make([]Timer, 4)
		for i := range timers {
			timers[i].Init(k, funcRunner(nop))
		}
		daemons := make([]*Daemon, 4)
		for i := range daemons {
			daemons[i] = k.NewDaemon("d", nop)
		}
		var ref []oracleEntry // sorted by (t, seq)
		ncanceled := 0
		// pending[kind][who] is the seq + 1 of the live firing, wake or
		// step.
		var pending [kinds][4]uint64
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
		}
		// add records the entry the kernel just pushed with seq.
		add := func(o oracleEntry) {
			i := sort.Search(len(ref), func(i int) bool {
				return ref[i].t > o.t || (ref[i].t == o.t && ref[i].seq > o.seq)
			})
			ref = append(ref, oracleEntry{})
			copy(ref[i+1:], ref[i:])
			ref[i] = o
			if o.kind != kindPlain {
				pending[o.kind][o.who] = o.seq + 1
			}
		}
		// staled marks ref[i] stale and compacts as the kernel does.
		staled := func(i int) {
			ref[i].stale = true
			ncanceled++
			if len(ref) >= compactMin && ncanceled*2 > len(ref) {
				live := ref[:0]
				for _, o := range ref {
					if !o.stale {
						live = append(live, o)
					}
				}
				ref, ncanceled = live, 0
			}
		}
		find := func(seq uint64) int {
			for i := range ref {
				if ref[i].seq == seq {
					return i
				}
			}
			return -1
		}
		// cancel marks the live entry of kind's who stale, if it has one.
		cancel := func(kind, who int) {
			if s := pending[kind][who]; s != 0 {
				staled(find(s - 1))
				pending[kind][who] = 0
			}
		}
		// interrupt preempts process who's spin: its wake goes stale and
		// a fresh one is queued at the clock.
		interrupt := func(who int) {
			cancel(kindWake, who)
			seq := k.seq
			procs[who].Interrupt(nop)
			procs[who].intr = procs[who].intr[:0]
			add(oracleEntry{t: k.now, seq: seq, kind: kindWake, who: who})
		}
		// wakeAt asks daemon who for a step at t: absorbed by a pending
		// step at or before t, otherwise a pending later one goes stale.
		wakeAt := func(who int, at Time) {
			seq := k.seq
			if s := pending[kindStep][who]; s != 0 && ref[find(s-1)].t <= at {
				daemons[who].WakeAt(at)
				return
			}
			cancel(kindStep, who)
			daemons[who].WakeAt(at)
			add(oracleEntry{t: at, seq: seq, kind: kindStep, who: who})
		}
		schedule := func(at Time) {
			seq := k.seq
			o := oracleEntry{t: at, seq: seq, kind: rng.Intn(kinds)}
			switch o.kind {
			case kindPlain:
				k.ScheduleRunnerAt(at, funcRunner(nop))
			case kindTimer:
				// Set replaces a pending firing: that entry goes stale
				// (and may trigger compaction) before the new one is
				// pushed.
				o.who = rng.Intn(len(timers))
				cancel(kindTimer, o.who)
				timers[o.who].Set(at)
			case kindWake:
				o.who = rng.Intn(len(procs))
				if pending[kindWake][o.who] != 0 {
					interrupt(o.who)
					return
				}
				procs[o.who].wakeAt(at)
			case kindStep:
				wakeAt(rng.Intn(len(daemons)), at)
				return
			}
			add(o)
		}
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(100); {
			case op < 40:
				var d Time
				switch rng.Intn(4) {
				case 1:
					d = Time(rng.Intn(16))
				case 2:
					d = Time(rng.Int63n(1 << 20))
				case 3:
					d = Time(rng.Int63n(1 << 40))
				}
				schedule(k.now + d)
			case op < 50:
				// Below last: the horizon peek and the stale skim leave
				// last ahead of the clock; a schedule may land between.
				if last := k.events.last.t; k.events.len() > 0 && last > k.now {
					schedule(k.now + Time(rng.Int63n(int64(last-k.now)+1)))
				}
			case op < 70:
				if len(ref) == 0 {
					continue
				}
				// Pop as dispatch does, minus the switch to a woken
				// process.
				e := k.events.pop()
				want := ref[0]
				ref = ref[1:]
				if e.t != want.t || e.seq != want.seq || stale(&e) != want.stale {
					fail(step, "popped (%d, %d, stale %v), want (%d, %d, stale %v)",
						e.t, e.seq, stale(&e), want.t, want.seq, want.stale)
				}
				if want.stale {
					k.ncanceled--
					ncanceled--
					break
				}
				if e.t < k.now {
					fail(step, "time went backwards: %d -> %d", k.now, e.t)
				}
				k.now = e.t
				e.target.RunEvent()
				k.running, k.nextp = nil, nil
				if want.kind != kindPlain {
					pending[want.kind][want.who] = 0
				}
			case op < 78:
				if len(ref) == 0 {
					continue
				}
				if e := k.events.peek(); e.t != ref[0].t || e.seq != ref[0].seq {
					fail(step, "peeked (%d, %d), want (%d, %d)", e.t, e.seq, ref[0].t, ref[0].seq)
				}
			case op < 97:
				if len(ref) == 0 {
					continue
				}
				i := rng.Intn(len(ref))
				if ref[i].stale {
					continue
				}
				switch o := ref[i]; o.kind {
				case kindTimer:
					timers[o.who].Stop()
					cancel(kindTimer, o.who)
				case kindWake:
					interrupt(o.who)
				case kindStep:
					if o.t > k.now {
						wakeAt(o.who, k.now+Time(rng.Int63n(int64(o.t-k.now))))
					}
				}
			case op < 99:
				// Stop on any timer, pending or not: with nothing
				// pending it touches nothing.
				who := rng.Intn(len(timers))
				timers[who].Stop()
				cancel(kindTimer, who)
			default:
				k.Reset(seed)
				for i, p := range procs {
					p.wseq = 0 // as Spawn's fresh Proc would have it
					timers[i].Init(k, funcRunner(nop))
				}
				ref, ncanceled = ref[:0], 0
				pending = [kinds][4]uint64{}
			}
			if n := k.events.len(); n != len(ref) || k.ncanceled != ncanceled {
				fail(step, "queue holds %d entries (%d stale), want %d (%d)", n, k.ncanceled, len(ref), ncanceled)
			}
			if len(ref) > 0 && k.events.above(ref[0].t) {
				fail(step, "above(%d) holds with (%d, %d) queued", ref[0].t, ref[0].t, ref[0].seq)
			}
			for who := range 4 {
				if s, want := procs[who].wseq, pending[kindWake][who]; s != want {
					fail(step, "process %d stamp %d, want %d", who, s, want)
				}
				if s, want := timers[who].seq, pending[kindTimer][who]; s != want {
					fail(step, "timer %d stamp %d, want %d", who, s, want)
				}
				if s, want := daemons[who].timer.seq, pending[kindStep][who]; s != want {
					fail(step, "daemon %d stamp %d, want %d", who, s, want)
				}
			}
		}
	}
}
