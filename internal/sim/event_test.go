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
		refs = append(refs, k.schedule(Time(i+1)*time.Millisecond, func() {}))
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
		refs = append(refs, k.schedule(Time(300-i)*time.Microsecond, func() { fired = append(fired, 300-i) }))
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

// TestStaleCancelIsHarmless: canceling through a ref whose event already
// fired (and whose storage was recycled for a newer event) must not
// cancel the newer event.
func TestStaleCancelIsHarmless(t *testing.T) {
	k := New(1)
	firstFired, secondFired := false, false
	stale := k.schedule(time.Microsecond, func() { firstFired = true })
	k.Spawn("canceler", func(p *Proc) {
		p.Sleep(2 * time.Microsecond) // first event has fired; its struct is pooled
		k.schedule(k.now+time.Microsecond, func() { secondFired = true })
		k.cancel(stale)               // stale: generation advanced on recycle
		p.Sleep(2 * time.Microsecond) // keep the sim alive until it fires
	})
	k.Run()
	if !firstFired || !secondFired {
		t.Fatalf("fired=%v,%v; stale cancel must be a no-op", firstFired, secondFired)
	}
}

// TestEventPoolReuse: the kernel recycles event structs instead of
// allocating one per schedule.
func TestEventPoolReuse(t *testing.T) {
	k := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			k.After(time.Microsecond, tick)
		}
	}
	k.After(time.Microsecond, tick)
	k.Run()
	// A pure event chain keeps exactly one struct in flight.
	if len(k.free) > 4 {
		t.Fatalf("free list grew to %d for a single event chain", len(k.free))
	}
	if k.Events() != 1000 {
		t.Fatalf("Events() = %d, want 1000", k.Events())
	}
}

// oracleEntry is the sorted reference's copy of a scheduled event.
type oracleEntry struct {
	t        Time
	seq      uint64
	ref      evref
	canceled bool
}

// TestQueueMatchesSortedOracle drives the event queue through seeded
// random sequences of schedule, pop, peek, schedules below the last
// minimum taken, cancel (with the compaction it triggers) and
// Kernel.Reset, and checks the length and every popped and peeked
// (t, seq) against a sorted slice.
func TestQueueMatchesSortedOracle(t *testing.T) {
	const seeds, steps = 300, 3000
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New(seed)
		var ref []oracleEntry // sorted by (t, seq)
		ncanceled := 0
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
		}
		schedule := func(at Time) {
			seq := k.seq
			r := k.schedule(at, nop)
			i := sort.Search(len(ref), func(i int) bool {
				return ref[i].t > at || (ref[i].t == at && ref[i].seq > seq)
			})
			ref = append(ref, oracleEntry{})
			copy(ref[i+1:], ref[i:])
			ref[i] = oracleEntry{t: at, seq: seq, ref: r}
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
				// Below last: the horizon peek and the canceled skim leave
				// last ahead of the clock; a schedule may land between.
				if last := k.events.last.t; k.events.len() > 0 && last > k.now {
					schedule(k.now + Time(rng.Int63n(int64(last-k.now)+1)))
				}
			case op < 70:
				if len(ref) == 0 {
					continue
				}
				e := k.events.pop()
				want := ref[0]
				ref = ref[1:]
				if e.t != want.t || e.seq != want.seq || e.ev.canceled != want.canceled {
					fail(step, "popped (%d, %d, canceled %v), want (%d, %d, canceled %v)",
						e.t, e.seq, e.ev.canceled, want.t, want.seq, want.canceled)
				}
				if e.ev.canceled {
					k.ncanceled--
					ncanceled--
				} else {
					if e.t < k.now {
						fail(step, "time went backwards: %d -> %d", k.now, e.t)
					}
					k.now = e.t
				}
				k.recycle(e.ev)
			case op < 80:
				if len(ref) == 0 {
					continue
				}
				if e := k.events.peek(); e.t != ref[0].t || e.seq != ref[0].seq {
					fail(step, "peeked (%d, %d), want (%d, %d)", e.t, e.seq, ref[0].t, ref[0].seq)
				}
			case op < 99:
				if len(ref) == 0 {
					continue
				}
				i := rng.Intn(len(ref))
				if ref[i].canceled {
					continue
				}
				k.cancel(ref[i].ref)
				ref[i].canceled = true
				ncanceled++
				if len(ref) >= compactMin && ncanceled*2 > len(ref) {
					live := ref[:0]
					for _, o := range ref {
						if !o.canceled {
							live = append(live, o)
						}
					}
					ref, ncanceled = live, 0
				}
			default:
				k.Reset(seed)
				ref, ncanceled = ref[:0], 0
			}
			if n := k.events.len(); n != len(ref) || k.ncanceled != ncanceled {
				fail(step, "queue holds %d entries (%d canceled), want %d (%d)", n, k.ncanceled, len(ref), ncanceled)
			}
		}
	}
}
