package sim

import (
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// BenchmarkProcSwitch is the shape of the benchmark's sim.proc_switch_ns
// probe: 1024 processes in a Sleep loop on a common tick, so every park
// finds another process's wake next and costs a switch out and a switch
// back in. One op is one park; -benchtime 102400x is the probe's
// 1024 × 100 exactly. Run it with -cpu 1,2: a switch that goes through
// the Go scheduler gets slower at 2 (it wakes the idle P), a coroutine
// switch does not.
func BenchmarkProcSwitch(b *testing.B) {
	const procs = 1024
	k := New(1)
	for i := 0; i < procs; i++ {
		sleeps := b.N / procs
		if i < b.N%procs {
			sleeps++
		}
		k.Spawn("p", func(p *Proc) {
			for j := 0; j < sleeps; j++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkProcSelfResume: one process whose own wake is always the next
// event, the park that never leaves its stack. One op is one park.
func BenchmarkProcSelfResume(b *testing.B) {
	k := New(1)
	k.Spawn("p", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
		b.StopTimer()
	})
	k.Run()
	k.Shutdown()
}

// benchLPWindows runs b.N conservative windows over two kernels with an
// empty exchange: in every window LP i executes events[i] timer events
// (the first of them re-arms the next window's). One op is one window,
// release to join.
func benchLPWindows(b *testing.B, events [2]int) {
	ks := []*Kernel{New(1), New(2)}
	for i, k := range ks {
		left := b.N
		var tick func()
		tick = func() {
			for j := 1; j < events[i]; j++ {
				k.After(Time(j), func() {})
			}
			if left--; left > 0 {
				k.After(time.Microsecond, tick)
			}
		}
		k.After(time.Microsecond, tick)
	}
	set := NewLPSet(ks, time.Microsecond, func() {})
	b.ResetTimer()
	set.Run()
}

// BenchmarkLPWindowEmpty is the shape of the benchmark's sim.lp_window_us
// probe: one timer event per LP per window, so the wall per window is
// the barrier's own cost. It is the degenerate case, not the typical
// one: neither runner ever waits long enough to leave the spin, so at
// -cpu 2 it reads two cross-core cache-line hand-offs, where the channel
// pair it replaced read less (all three goroutines rode one P through
// runnext and never slept) while costing real windows a futex wake-up
// each way. At -cpu 1 there is no barrier and it reads the window loop.
func BenchmarkLPWindowEmpty(b *testing.B) { benchLPWindows(b, [2]int{1, 1}) }

// BenchmarkLPWindowUneven: LP 0 has fifty events per window and LP 1
// five, so the worker finishes early and waits for the next release
// while the caller is still inside its window: the wait the budgets are
// sized for.
func BenchmarkLPWindowUneven(b *testing.B) { benchLPWindows(b, [2]int{50, 5}) }

// queueTimer re-arms itself every delay until the benchmark's event
// budget runs out: one of BenchmarkTimerQueue's timers.
type queueTimer struct {
	k     *Kernel
	delay Time
	left  *int
}

func (t *queueTimer) RunEvent() {
	if *t.left--; *t.left <= 0 {
		t.k.Stop()
	}
	t.k.AfterRunner(t.delay, t)
}

// BenchmarkTimerQueue is the event queue under the flow grid's shape: N
// timers, each re-arming itself with its own seeded delay spread over
// 1 ms, so the queue holds N entries throughout. One op is one event. At
// 4096 timers the queue fits in cache; at 262144 (the largest flow_scale
// cell's rank count) it does not.
func BenchmarkTimerQueue(b *testing.B) {
	for _, n := range []int{4096, 262144} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			k := New(1)
			rng := rand.New(rand.NewSource(1))
			left := b.N
			ts := make([]queueTimer, n)
			for i := range ts {
				ts[i] = queueTimer{k: k, delay: 1 + Time(rng.Int63n(int64(time.Millisecond))), left: &left}
				k.AfterRunner(ts[i].delay, &ts[i])
			}
			b.ResetTimer()
			k.Run()
		})
	}
}
