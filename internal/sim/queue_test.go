package sim

import (
	"strings"
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

// TestQueueSecondConsumerPanics: a Queue has one consumer, so a second
// process parking on it, through Get or GetTimeout, while the first is
// still parked panics with the queue's name.
func TestQueueSecondConsumerPanics(t *testing.T) {
	for _, second := range []struct {
		name string
		get  func(q *Queue[int], p *Proc)
	}{
		{"Get", func(q *Queue[int], p *Proc) { q.Get(p) }},
		{"GetTimeout", func(q *Queue[int], p *Proc) { q.GetTimeout(p, time.Millisecond) }},
	} {
		t.Run(second.name, func(t *testing.T) {
			k := New(1)
			q := NewQueue[int]("inbox")
			k.Spawn("first", func(p *Proc) { q.GetTimeout(p, time.Millisecond) })
			k.Spawn("second", func(p *Proc) {
				p.Sleep(time.Microsecond)
				second.get(q, p)
			})
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "second consumer") || !strings.Contains(msg, "inbox") {
					t.Errorf("Run panicked with %q, want a second-consumer panic naming the queue", msg)
				}
				k.Shutdown()
			}()
			k.Run()
		})
	}
}

// TestQueueResetDisarmsDeadline: a run stopped while a GetTimeout
// deadline is pending, then Queue.Reset and Kernel.Reset, leaves the
// kernel and the queue as a fresh pair: the same scenario runs with the
// same Events() and stale count. A deadline stamp left set would have
// the next GetTimeout count a stale entry for one Reset already dropped.
func TestQueueResetDisarmsDeadline(t *testing.T) {
	scenario := func(k *Kernel, q *Queue[int]) (uint64, int) {
		k.Spawn("consumer", func(p *Proc) {
			q.GetTimeout(p, 100*time.Microsecond) // the Put stops this deadline
			q.GetTimeout(p, 10*time.Microsecond)  // this one fires
		})
		k.Spawn("producer", func(p *Proc) {
			p.Sleep(3 * time.Microsecond)
			q.Put(1)
		})
		k.Run()
		return k.Events(), k.ncanceled
	}
	fresh := New(1)
	wantEv, wantStale := scenario(fresh, NewQueue[int]("q"))
	if wantStale == 0 {
		t.Fatal("the scenario stops no deadline: the test is vacuous")
	}

	k := New(1)
	q := NewQueue[int]("q")
	k.Spawn("stopped", func(p *Proc) { q.GetTimeout(p, 10*time.Microsecond) })
	k.After(5*time.Microsecond, k.Stop)
	k.Run()
	if !q.deadline.Pending() {
		t.Fatal("the deadline is not pending when the run stops: the test is vacuous")
	}
	q.Reset()
	k.Reset(1)
	if ev, stale := scenario(k, q); ev != wantEv || stale != wantStale {
		t.Errorf("after Reset the scenario ran %d events with %d stale, want %d and %d as on a fresh kernel", ev, stale, wantEv, wantStale)
	}
	fresh.Shutdown()
	k.Shutdown()
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
