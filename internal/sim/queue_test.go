package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// TestQueueFIFOProperty: under an arbitrary interleaving of puts across
// producers, a single consumer sees every item exactly once and items
// from one producer stay in order.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(plan []uint8) bool {
		if len(plan) == 0 {
			return true
		}
		if len(plan) > 40 {
			plan = plan[:40]
		}
		k := New(1)
		q := NewQueue[[2]int]("q")
		var got [][2]int
		total := len(plan)
		k.Spawn("consumer", func(p *Proc) {
			for i := 0; i < total; i++ {
				got = append(got, q.Get(p))
			}
		})
		for prod := 0; prod < 3; prod++ {
			prod := prod
			k.Spawn("producer", func(p *Proc) {
				n := 0
				for i, b := range plan {
					if int(b)%3 != prod {
						continue
					}
					p.Sleep(Time(b) * time.Microsecond)
					q.Put([2]int{prod, n})
					n++
					_ = i
				}
			})
		}
		// Every plan entry is produced by exactly one producer, so the
		// consumer drains len(plan) items and the run quiesces.
		k.Run()
		if len(got) != total {
			return false
		}
		// Per-producer ordering.
		last := map[int]int{0: -1, 1: -1, 2: -1}
		for _, item := range got {
			if item[1] != last[item[0]]+1 {
				return false
			}
			last[item[0]] = item[1]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQueueTimeoutVsPutRace: a put landing exactly at the timeout
// deadline must not double-wake or lose the item.
func TestQueueTimeoutVsPutRace(t *testing.T) {
	k := New(1)
	q := NewQueue[int]("q")
	k.Spawn("consumer", func(p *Proc) {
		v, ok := q.GetTimeout(p, 10*time.Microsecond)
		if ok && v != 9 {
			t.Errorf("wrong item %d", v)
		}
		if !ok {
			// Timed out: item must still be retrievable.
			if v := q.Get(p); v != 9 {
				t.Errorf("item lost after timeout race: %d", v)
			}
		}
		// Either way the process continues to work normally.
		p.Sleep(time.Microsecond)
	})
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(10 * time.Microsecond) // exactly at the deadline
		q.Put(9)
	})
	k.Run()
}

// TestQueueTimeoutSameTickSingleDelivery: a timeout and a Put landing
// on the same virtual tick, with a second waiter parked behind the
// timed-out one, must deliver the item exactly once — either to the
// timed waiter (its wake won the tick) or to the patient one (the
// timeout won, and its tombstoned waiter slot must not eat the wake).
func TestQueueTimeoutSameTickSingleDelivery(t *testing.T) {
	k := New(1)
	q := NewQueue[int]("q")
	timedGot, patientGot := -1, -1
	k.Spawn("timed", func(p *Proc) {
		if v, ok := q.GetTimeout(p, 5*time.Microsecond); ok {
			timedGot = v
		}
	})
	k.Spawn("patient", func(p *Proc) {
		p.Sleep(time.Microsecond) // park behind "timed" in the waiter ring
		if v, ok := q.GetTimeout(p, time.Millisecond); ok {
			patientGot = v
		}
	})
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(5 * time.Microsecond) // exactly at timed's deadline
		q.Put(7)
	})
	k.Run()
	if (timedGot == 7) == (patientGot == 7) {
		t.Errorf("item delivered %d/%d times (timed=%d patient=%d), want exactly once",
			timedGot, patientGot, timedGot, patientGot)
	}
}

func TestDaemonDoesNotBlockRun(t *testing.T) {
	k := New(1)
	q := NewQueue[int]("work")
	d := k.NewDaemon("daemon", func() {
		for _, ok := q.TryGet(); ok; _, ok = q.TryGet() {
		}
	})
	d.SetStatus("work") // idle on its queue for good after the first item
	k.Spawn("app", func(p *Proc) {
		q.Put(1)
		d.Wake()
		p.Sleep(10 * time.Microsecond)
	})
	end := k.Run() // must not deadlock-panic
	if end != 10*time.Microsecond {
		t.Errorf("end = %v", end)
	}
}

func TestRunStopsWhenOnlyDaemonEventsRemain(t *testing.T) {
	k := New(1)
	var d *Daemon
	d = k.NewDaemon("ticker", func() { d.Sleep(time.Millisecond) }) // schedules forever
	k.Spawn("app", func(p *Proc) {
		d.Wake()
		p.Sleep(3 * time.Millisecond)
	})
	done := make(chan Time, 1)
	go func() { done <- k.Run() }()
	select {
	case end := <-done:
		if end < 3*time.Millisecond {
			t.Errorf("ended at %v before the app finished", end)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not terminate with a perpetually-ticking daemon")
	}
}

func TestStopEndsRun(t *testing.T) {
	k := New(1)
	n := 0
	k.Spawn("app", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
			n++
			if n == 5 {
				k.Stop()
			}
		}
	})
	k.Run()
	if n != 5 {
		t.Errorf("ran %d iterations after Stop", n)
	}
}

func TestInterruptOrderingFIFO(t *testing.T) {
	k := New(1)
	var order []int
	var target *Proc
	target = k.Spawn("app", func(p *Proc) {
		p.SpinInterruptible(100 * time.Microsecond)
	})
	k.Spawn("src", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		for i := 0; i < 3; i++ {
			i := i
			target.Interrupt(func() { order = append(order, i) })
		}
	})
	k.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("interrupt order %v", order)
	}
}

func TestBusyAccountingAcrossInterrupts(t *testing.T) {
	k := New(1)
	var target *Proc
	target = k.Spawn("app", func(p *Proc) {
		p.SpinInterruptible(50 * time.Microsecond)
		// 50µs app + 30µs handler = 80µs busy.
		if p.Busy() != 80*time.Microsecond {
			t.Errorf("busy = %v", p.Busy())
		}
	})
	k.Spawn("src", func(p *Proc) {
		p.Sleep(20 * time.Microsecond)
		target.Interrupt(func() {
			// Handler sleeps (e.g. waiting on a queue) — elapsed time
			// is charged as busy even without explicit Spin.
			target.Sleep(30 * time.Microsecond)
		})
	})
	k.Run()
}
