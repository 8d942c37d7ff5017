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
	var refs []evref
	for i := 0; i < 1000; i++ {
		refs = append(refs, k.schedule(Time(i+1)*time.Millisecond, funcRunner(nop)))
	}
	for _, r := range refs[:900] {
		k.cancel(r)
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
	var refs []evref
	for i := 0; i < 300; i++ {
		i := i
		refs = append(refs, k.schedule(Time(300-i)*time.Microsecond, funcRunner(func() { fired = append(fired, 300-i) })))
	}
	// Cancel two thirds to force at least one compaction pass.
	for i := 0; i < len(refs); i++ {
		if i%3 != 0 {
			k.cancel(refs[i])
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

// TestStaleCancelIsHarmless: canceling through an EventRef whose event
// already fired, and whose record was recycled for a newer event, must
// not cancel the newer event.
func TestStaleCancelIsHarmless(t *testing.T) {
	k := New(1)
	firstFired, secondFired := false, false
	stale := k.AfterRunnerRef(time.Microsecond, funcRunner(func() { firstFired = true }))
	k.Spawn("canceler", func(p *Proc) {
		p.Sleep(2 * time.Microsecond) // first event has fired; its record is pooled
		fresh := k.AfterRunnerRef(time.Microsecond, funcRunner(func() { secondFired = true }))
		if fresh.ref.ev != stale.ref.ev {
			t.Errorf("the second event did not reuse the first one's record")
		}
		k.CancelRunner(stale)         // stale: generation advanced on recycle
		p.Sleep(2 * time.Microsecond) // keep the sim alive until it fires
	})
	k.Run()
	if !firstFired || !secondFired {
		t.Fatalf("fired=%v,%v; stale cancel must be a no-op", firstFired, secondFired)
	}
}

// chainRunner re-arms itself through a fresh EventRef until n events
// have run, recording the record each one used.
type chainRunner struct {
	k       *Kernel
	n       int
	records map[*event]bool
}

func (c *chainRunner) RunEvent() {
	if c.n--; c.n > 0 {
		ref := c.k.AfterRunnerRef(time.Microsecond, c)
		c.records[ref.ref.ev] = true
	}
}

// TestEventPoolReuse: the kernel recycles records instead of allocating
// one per cancelable schedule. A record is recycled before its target
// runs, so an EventRef chain that re-arms from its own event reuses one
// record throughout.
func TestEventPoolReuse(t *testing.T) {
	k := New(1)
	c := &chainRunner{k: k, n: 1000, records: map[*event]bool{}}
	ref := k.AfterRunnerRef(time.Microsecond, c)
	c.records[ref.ref.ev] = true
	k.Run()
	if len(c.records) != 1 || len(k.free) != 1 {
		t.Fatalf("a single EventRef chain used %d records and left %d pooled, want 1 and 1", len(c.records), len(k.free))
	}
	if k.Events() != 1000 {
		t.Fatalf("Events() = %d, want 1000", k.Events())
	}
}

// The kinds of queue entry TestQueueMatchesSortedOracle schedules, by
// what can make one stale.
const (
	kindPlain = iota // ScheduleRunnerAt: no handle, never stale
	kindRef          // AfterRunnerRef: canceled through CancelRunner
	kindTimer        // GetTimeout's timer, a record around a closure: k.cancel
	kindWake         // a process wake: Interrupt on an interruptible spin
	kindStep         // a daemon step: a WakeAt pull-in
	kinds
)

// oracleEntry is the sorted reference's copy of a queued entry.
type oracleEntry struct {
	t     Time
	seq   uint64
	kind  int
	who   int   // kindWake, kindStep: the process or daemon
	ref   evref // kindRef, kindTimer
	stale bool
}

// TestQueueMatchesSortedOracle drives the event queue through seeded
// random sequences of schedules of every entry kind (plain Runners,
// EventRefs, GetTimeout timers, process wakes and daemon steps), pops in
// dispatch's way, peeks, schedules below the last minimum taken, cancels
// of every kind that has one (CancelRunner, a timer's cancel, Interrupt
// on an interruptible spin, Daemon.WakeAt pulling a step in) with the
// compaction they trigger, stale cancels, and Kernel.Reset. It checks
// every popped and peeked (t, seq), whether a popped entry is stale, the
// queue length and the stale count against a sorted slice, every stamp
// against the entry the oracle says it names, and that the queue never
// reports itself above its own minimum (the bound runAhead trusts).
func TestQueueMatchesSortedOracle(t *testing.T) {
	const seeds, steps = 300, 3000
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New(seed)
		// Processes that are never resumed, only woken: their wakes are
		// queue entries like any other. A daemon step runs nop.
		procs := make([]*Proc, 4)
		for i := range procs {
			procs[i] = &Proc{k: k, interruptible: true}
		}
		daemons := make([]*Daemon, 4)
		for i := range daemons {
			daemons[i] = k.NewDaemon("d", nop)
		}
		var ref []oracleEntry // sorted by (t, seq)
		var fired []EventRef  // refs whose event has popped
		ncanceled := 0
		// pending[kind][who] is the seq + 1 of the live wake or step.
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
			if o.kind == kindWake || o.kind == kindStep {
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
		// interrupt preempts process who's spin: its wake goes stale and
		// a fresh one is queued at the clock.
		interrupt := func(who int) {
			staled(find(pending[kindWake][who] - 1))
			seq := k.seq
			procs[who].Interrupt(nop)
			procs[who].intr = procs[who].intr[:0]
			add(oracleEntry{t: k.now, seq: seq, kind: kindWake, who: who})
		}
		// wakeAt asks daemon who for a step at t: absorbed by a pending
		// step at or before t, otherwise a pending later one goes stale.
		wakeAt := func(who int, at Time) {
			seq := k.seq
			if s := pending[kindStep][who]; s != 0 {
				if ref[find(s-1)].t <= at {
					daemons[who].WakeAt(at)
					return
				}
				staled(find(s - 1))
			}
			daemons[who].WakeAt(at)
			add(oracleEntry{t: at, seq: seq, kind: kindStep, who: who})
		}
		schedule := func(at Time) {
			seq := k.seq
			o := oracleEntry{t: at, seq: seq, kind: rng.Intn(kinds)}
			switch o.kind {
			case kindPlain:
				k.ScheduleRunnerAt(at, funcRunner(nop))
			case kindRef:
				o.ref = k.AfterRunnerRef(at-k.now, funcRunner(nop)).ref
			case kindTimer:
				o.ref = k.schedule(at, funcRunner(func() {}))
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
					k.drop(&e)
					break
				}
				if e.t < k.now {
					fail(step, "time went backwards: %d -> %d", k.now, e.t)
				}
				k.now = e.t
				e.target.RunEvent()
				k.running, k.nextp = nil, nil
				switch want.kind {
				case kindWake, kindStep:
					pending[want.kind][want.who] = 0
				case kindRef:
					fired = append(fired, EventRef{want.ref})
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
				case kindRef:
					k.CancelRunner(EventRef{o.ref})
					staled(i)
				case kindTimer:
					k.cancel(o.ref)
					staled(i)
				case kindWake:
					interrupt(o.who)
				case kindStep:
					if o.t > k.now {
						wakeAt(o.who, k.now+Time(rng.Int63n(int64(o.t-k.now))))
					}
				}
			case op < 99:
				// A cancel through the ref of an event that has fired
				// touches nothing, even once its record is reused.
				if len(fired) > 0 {
					k.CancelRunner(fired[rng.Intn(len(fired))])
				}
			default:
				k.Reset(seed)
				for _, p := range procs {
					p.wseq = 0 // as Spawn's fresh Proc would have it
				}
				ref, ncanceled, fired = ref[:0], 0, fired[:0]
				pending = [kinds][4]uint64{}
			}
			if n := k.events.len(); n != len(ref) || k.ncanceled != ncanceled {
				fail(step, "queue holds %d entries (%d stale), want %d (%d)", n, k.ncanceled, len(ref), ncanceled)
			}
			if len(ref) > 0 && k.events.above(ref[0].t) {
				fail(step, "above(%d) holds with (%d, %d) queued", ref[0].t, ref[0].t, ref[0].seq)
			}
			for who, p := range procs {
				if p.wseq != pending[kindWake][who] {
					fail(step, "process %d stamp %d, want %d", who, p.wseq, pending[kindWake][who])
				}
			}
			for who, d := range daemons {
				if d.seq != pending[kindStep][who] {
					fail(step, "daemon %d stamp %d, want %d", who, d.seq, pending[kindStep][who])
				}
			}
		}
	}
}
