package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// lpHarness is a minimal cross-LP transport for tests: each LP appends
// posts to its outbox during a window; the exchange hook sorts them by
// (t, lp, seq) and schedules each on the destination kernel — the same
// deterministic merge the fabric performs.
type lpHarness struct {
	ks    []*Kernel
	boxes [][]lpPost
}

type lpPost struct {
	t   Time
	dst int
	fn  func()
	lp  int
	seq uint64
}

func newLPHarness(n int, seed int64) *lpHarness {
	h := &lpHarness{ks: make([]*Kernel, n), boxes: make([][]lpPost, n)}
	for i := range h.ks {
		h.ks[i] = New(seed + int64(i))
	}
	return h
}

// post schedules fn on LP dst at absolute time t; callable only from
// goroutines of LP src during a window.
func (h *lpHarness) post(src, dst int, t Time, fn func()) {
	h.boxes[src] = append(h.boxes[src], lpPost{t: t, dst: dst, fn: fn,
		lp: src, seq: uint64(len(h.boxes[src]))})
}

func (h *lpHarness) exchange() {
	var all []lpPost
	for i := range h.boxes {
		all = append(all, h.boxes[i]...)
		h.boxes[i] = h.boxes[i][:0]
	}
	// Insertion sort by (t, lp, seq): tiny windows, deterministic order.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0; j-- {
			a, b := &all[j-1], &all[j]
			if a.t < b.t || (a.t == b.t && (a.lp < b.lp || (a.lp == b.lp && a.seq < b.seq))) {
				break
			}
			all[j-1], all[j] = all[j], all[j-1]
		}
	}
	for _, m := range all {
		m := m
		h.ks[m.dst].ScheduleRunnerAt(m.t, funcRunner(m.fn))
	}
}

// TestLPSetPingPong: two LPs exchange a token through the windowed
// protocol; the result (rounds completed, final virtual time) must be
// exact and stable across repeated runs regardless of goroutine
// interleaving.
func TestLPSetPingPong(t *testing.T) {
	const L = 10 * time.Microsecond
	const rounds = 20
	run := func() Time {
		h := newLPHarness(2, 1)
		q0 := NewQueue[int]("q0")
		q1 := NewQueue[int]("q1")
		h.ks[0].Spawn("ping", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				h.post(0, 1, p.Now()+L, func() { q1.Put(r) })
				if got := q0.Get(p); got != r {
					t.Errorf("round %d: ping got %d", r, got)
				}
			}
		})
		h.ks[1].Spawn("pong", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				v := q1.Get(p)
				h.post(1, 0, p.Now()+L, func() { q0.Put(v) })
			}
		})
		return NewLPSet(h.ks, L, h.exchange).Run()
	}
	end := run()
	// Each round costs one L per direction.
	if want := Time(2 * rounds * L); end != want {
		t.Errorf("end = %v, want %v", end, want)
	}
	for i := 0; i < 10; i++ {
		if again := run(); again != end {
			t.Fatalf("run %d ended at %v, first at %v", i, again, end)
		}
	}
}

// TestLPSetSingleKernelDelegates: a one-kernel set must behave exactly
// like Kernel.Run — including leaving the kernel unmarked, so deadlock
// reports carry no LP tag.
func TestLPSetSingleKernelDelegates(t *testing.T) {
	k := New(1)
	k.Spawn("app", func(p *Proc) { p.Sleep(3 * time.Microsecond) })
	if end := NewLPSet([]*Kernel{k}, 0, func() {}).Run(); end != 3*time.Microsecond {
		t.Errorf("end = %v", end)
	}

	k2 := New(1)
	k2.Spawn("stuck", func(p *Proc) { NewQueue[int]("noone").Get(p) })
	defer func() {
		msg, _ := recover().(string)
		if msg == "" || !strings.Contains(msg, "deadlock") {
			t.Fatalf("no deadlock panic: %v", msg)
		}
		if strings.Contains(msg, "lp0") {
			t.Errorf("single-kernel report carries an LP tag:\n%s", msg)
		}
	}()
	NewLPSet([]*Kernel{k2}, 0, func() {}).Run()
}

// TestLPSetDeadlockReportNamesLP: when a partitioned run deadlocks, the
// aggregated stuck report must say which LP each parked process lives
// on.
func TestLPSetDeadlockReportNamesLP(t *testing.T) {
	h := newLPHarness(2, 1)
	h.ks[0].Spawn("finisher", func(p *Proc) { p.Sleep(time.Microsecond) })
	h.ks[1].Spawn("stuck", func(p *Proc) { NewQueue[int]("noone").Get(p) })
	defer func() {
		msg, _ := recover().(string)
		if msg == "" || !strings.Contains(msg, "deadlock") {
			t.Fatalf("no deadlock panic: %v", msg)
		}
		for _, want := range []string{"lp1", "[lp1]", "stuck", "noone"} {
			if !strings.Contains(msg, want) {
				t.Errorf("report missing %q:\n%s", want, msg)
			}
		}
	}()
	NewLPSet(h.ks, 10*time.Microsecond, h.exchange).Run()
}

// TestLPSetRunnerOnly: the flow engine's shape — no processes or
// daemons anywhere, work seeded as runner events before Run, new
// cross-LP events minted only by the exchange hook. The set must keep
// opening windows while any kernel holds events and terminate at the
// last event's time once the relay goes quiet.
func TestLPSetRunnerOnly(t *testing.T) {
	const L = Time(100)
	const hops = 25
	run := func() (Time, int) {
		h := newLPHarness(2, 1)
		count := 0
		var relay func(lp int)
		relay = func(lp int) {
			count++
			if count >= hops {
				return
			}
			h.post(lp, 1-lp, h.ks[lp].Now()+L, func() { relay(1 - lp) })
		}
		h.ks[0].ScheduleRunnerAt(0, funcRunner(func() { relay(0) }))
		return NewLPSet(h.ks, L, h.exchange).Run(), count
	}
	end, count := run()
	if count != hops {
		t.Errorf("relay ran %d hops, want %d", count, hops)
	}
	if want := Time((hops - 1)) * L; end != want {
		t.Errorf("end = %v, want %v", end, want)
	}
	for i := 0; i < 10; i++ {
		if again, _ := run(); again != end {
			t.Fatalf("run %d ended at %v, first at %v", i, again, end)
		}
	}
}

// TestLPSetPanicPropagates: a panic on any LP surfaces from LPSet.Run,
// like Kernel.Run does for the monolithic kernel.
func TestLPSetPanicPropagates(t *testing.T) {
	h := newLPHarness(2, 1)
	h.ks[0].Spawn("fine", func(p *Proc) { p.Sleep(time.Millisecond) })
	h.ks[1].Spawn("bomb", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic("boom on lp1")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom on lp1") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	NewLPSet(h.ks, 10*time.Microsecond, h.exchange).Run()
}

// TestLPSetGoexitInProcPanics: a runtime.Goexit inside a process body
// (t.Fatal from a rank closure) is propagated by the coroutine to the
// goroutine that resumed it. When that is a window worker, the worker
// still counts itself out of the barrier and LPSet.Run raises the exit
// as the LP's panic; when it is the caller of Run (LP 0 always, every LP
// with one runner), the caller ends as it would under Kernel.Run, after
// its deferred release has told the workers to exit. Nothing else is
// acceptable, and in neither case may Run hang or a worker survive.
func TestLPSetGoexitInProcPanics(t *testing.T) {
	for _, lp := range []int{0, 1} {
		t.Run(fmt.Sprintf("lp%d", lp), func(t *testing.T) {
			base := settledGoroutines()
			// Repeated so that one leaked worker per Run would exceed the
			// slack waitGoroutines allows the runtime's own helpers.
			for rep := 0; rep < 8; rep++ {
				h := newLPHarness(2, 1)
				h.ks[1-lp].Spawn("fine", func(p *Proc) { p.Sleep(time.Millisecond) })
				deferred := false
				h.ks[lp].Spawn("quitter", func(p *Proc) {
					defer func() { deferred = true }()
					p.Sleep(time.Microsecond)
					runtime.Goexit()
				})
				set := NewLPSet(h.ks, 10*time.Microsecond, h.exchange)
				type outcome struct {
					returned bool
					raised   any
				}
				res := make(chan outcome, 1)
				go func() {
					var o outcome
					defer func() {
						o.raised = recover()
						res <- o
					}()
					set.Run()
					o.returned = true
				}()
				select {
				case o := <-res:
					onCaller := lp%set.Stats().Runners == 0
					msg, _ := o.raised.(string)
					switch {
					case o.returned:
						t.Error("LPSet.Run returned normally although a rank body exited")
					case onCaller && o.raised != nil:
						t.Errorf("exit on the caller's stripe: LPSet.Run raised %v, want the caller's goroutine to end", o.raised)
					case !onCaller && !strings.Contains(msg, fmt.Sprintf("LP goroutine exited inside a window [lp%d]", lp)):
						t.Errorf("exit on a worker's LP: LPSet.Run raised %v, want the LP-exit panic", o.raised)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("LPSet.Run still waiting at the barrier after an LP's goroutine exited")
				}
				if !deferred {
					t.Error("the exiting body's deferred function did not run")
				}
				for _, k := range h.ks {
					k.Shutdown()
				}
			}
			waitGoroutines(t, base)
		})
	}
}

// settledGoroutines returns the goroutine count once it has stopped
// moving: the workers of an earlier test's Run have been told to exit
// but may not have got there yet.
func settledGoroutines() int {
	n := countGoroutines()
	for i := 0; i < 1000; i++ {
		time.Sleep(time.Millisecond)
		m := countGoroutines()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestLPSetRunners: Run starts one goroutine fewer than it has runners,
// because its caller is runner 0, and never more runners than LPs, Ps or
// CPUs: one worker for two LPs (there were two, plus a parked
// coordinator), none at all on one P. The count is taken inside a
// window, on kernels without processes, since a process coroutine is a
// goroutine too.
func TestLPSetRunners(t *testing.T) {
	for _, tc := range []struct {
		name       string
		lps, procs int // procs 0: GOMAXPROCS as the test was started
	}{
		{"2lps", 2, 0},
		{"8lps", 8, 0},
		{"8lps-1P", 8, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			want := min(tc.lps, runtime.GOMAXPROCS(0), runtime.NumCPU()) - 1
			h := newLPHarness(tc.lps, 1)
			for _, k := range h.ks {
				k.After(time.Microsecond, func() {})
			}
			base := settledGoroutines()
			started := -1
			// LP 0 runs on the caller, whose fork precedes the first window.
			h.ks[0].After(time.Millisecond, func() { started = runtime.NumGoroutine() - base })
			set := NewLPSet(h.ks, 10*time.Microsecond, h.exchange)
			set.Run()
			if started != want {
				t.Errorf("%d LPs at GOMAXPROCS %d on %d CPUs: Run started %d goroutines, want %d",
					tc.lps, runtime.GOMAXPROCS(0), runtime.NumCPU(), started, want)
			}
			if got := set.Stats().Runners; got != want+1 {
				t.Errorf("Stats().Runners = %d, want %d", got, want+1)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestLPSetPanicOrder: panics captured on the caller's stripe (LP 0) and
// on a worker's (LP 1) in the same window surface lowest LP first, and a
// panic on the worker's LP alone still brings the caller through the
// barrier to raise it.
func TestLPSetPanicOrder(t *testing.T) {
	run := func(bombs ...int) (raised any) {
		h := newLPHarness(2, 1)
		for _, lp := range bombs {
			h.ks[lp].After(time.Microsecond, func() { panic(fmt.Sprintf("boom on lp%d", lp)) })
		}
		for _, k := range h.ks {
			k.After(time.Millisecond, func() {})
		}
		defer func() { raised = recover() }()
		NewLPSet(h.ks, 10*time.Microsecond, h.exchange).Run()
		return nil
	}
	if r := run(1, 0); r != "boom on lp0" {
		t.Errorf("both LPs panicked in one window: Run raised %v, want LP 0's", r)
	}
	if r := run(1); r != "boom on lp1" {
		t.Errorf("LP 1 panicked alone: Run raised %v, want its panic", r)
	}
}

// lpRec is one executed event in an LP's log: when, and what (0 the
// LP's tick, 1 a timer the tick armed, 2+src a message from LP src).
type lpRec struct {
	t    Time
	what int
}

// unevenLoad seeds every LP of h with windows lookahead-wide windows of
// deliberately unequal work and returns the per-LP event logs the run
// will fill. LP 0 ticks every L and arms 0–40 timers inside the window
// from its own seeded stream; the others arm 0–2 and skip up to two
// windows between ticks, so the runner that finishes first is not
// always the same one and some windows find an LP with nothing to do.
// One tick in four posts a message that lands on another LP exactly at
// the next horizon.
func unevenLoad(h *lpHarness, L Time, windows int) [][]lpRec {
	n := len(h.ks)
	logs := make([][]lpRec, n)
	end := Time(windows) * L
	for i, k := range h.ks {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		note := func(lp, what int) { logs[lp] = append(logs[lp], lpRec{h.ks[lp].Now(), what}) }
		timers, gaps := 2, 3
		if i == 0 {
			timers, gaps = 40, 1
		}
		var tick func()
		tick = func() {
			note(i, 0)
			for c := rng.Intn(timers + 1); c > 0; c-- {
				k.After(Time(rng.Int63n(int64(L))), func() { note(i, 1) })
			}
			if rng.Intn(4) == 0 {
				dst := (i + 1 + rng.Intn(n-1)) % n
				h.post(i, dst, k.Now()+L, func() { note(dst, 2+i) })
			}
			if gap := L * Time(1+rng.Intn(gaps)); k.Now()+gap < end {
				k.After(gap, tick)
			}
		}
		k.After(0, tick)
	}
	return logs
}

// TestLPSetParkPath drives the barrier's slow path: with both wait
// budgets at zero every wait parks, so each of 20 000 windows of uneven
// work is released and joined through the flag-and-token protocol, with
// waiters arriving before, during and after the change they wait for
// (the lost-wake-up and stale-token cases; run it under -race -cpu 2,4).
// Each LP must execute exactly the events, in exactly the order, that it
// executes with the default budgets and with every LP on the caller.
func TestLPSetParkPath(t *testing.T) {
	const L = time.Microsecond
	windows := 20000
	if testing.Short() {
		windows = 4000
	}
	run := func(lps int) ([][]lpRec, LPStats) {
		h := newLPHarness(lps, 1)
		logs := unevenLoad(h, L, windows)
		set := NewLPSet(h.ks, L, h.exchange)
		set.Run()
		return logs, set.Stats()
	}
	same := func(t *testing.T, what string, got, want [][]lpRec) {
		t.Helper()
		for lp := range want {
			if !slices.Equal(got[lp], want[lp]) {
				t.Errorf("%s: LP %d executed %d events, a different log from the default run's %d",
					what, lp, len(got[lp]), len(want[lp]))
			}
		}
	}
	for _, lps := range []int{2, 8} {
		t.Run(fmt.Sprintf("%dlps", lps), func(t *testing.T) {
			want, def := run(lps)
			if def.Windows < uint64(windows) {
				t.Fatalf("default run took %d windows, want at least %d", def.Windows, windows)
			}

			func() {
				defer func(s, y int) { spinBudget, yieldBudget = s, y }(spinBudget, yieldBudget)
				spinBudget, yieldBudget = 0, 0
				got, st := run(lps)
				same(t, "zero budgets", got, want)
				if st.Windows != def.Windows {
					t.Errorf("zero budgets: %d windows, default run %d", st.Windows, def.Windows)
				}
				if st.Runners > 1 && st.Parks < st.Windows {
					t.Errorf("zero budgets on %d runners: %d parks in %d windows, the park path was not forced",
						st.Runners, st.Parks, st.Windows)
				}
			}()

			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				got, st := run(lps)
				same(t, "GOMAXPROCS 1", got, want)
				if st.Windows != def.Windows || st.Runners != 1 || st.Parks != 0 {
					t.Errorf("GOMAXPROCS 1: stats %+v, want 1 runner, no parks and the default run's %d windows",
						st, def.Windows)
				}
			}()
		})
	}
}

// TestLPSetDaemonProcAcrossRuns: a callback daemon on LP 1 serves the
// work another LP sends it in each of several LPSet.Run calls, and sits
// idle between them: it neither keeps a Run alive nor loses its
// registration when one ends.
func TestLPSetDaemonProcAcrossRuns(t *testing.T) {
	const L = 10 * time.Microsecond
	h := newLPHarness(2, 1)
	work := NewQueue[int]("work")
	var got []int
	d := h.ks[1].NewDaemon("svc", func() {
		for {
			v, ok := work.TryGet()
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	set := NewLPSet(h.ks, L, h.exchange)
	for run := 0; run < 3; run++ {
		h.ks[0].Spawn("client", func(p *Proc) {
			h.post(0, 1, p.Now()+L, func() { work.Put(run); d.Wake() })
			p.Sleep(3 * L) // outlive the delivery
		})
		set.Run()
		if len(got) != run+1 || got[run] != run {
			t.Fatalf("after run %d the daemon has served %v", run, got)
		}
		if d.seq != 0 {
			t.Fatalf("after run %d the daemon still has a step pending, want idle", run)
		}
	}
	for _, k := range h.ks {
		k.Shutdown()
	}
}

// TestQueueGetTimeoutVsCrossLPPut: a Put delivered from another LP
// landing on exactly the waiter's timeout tick must deliver the item
// exactly once, whichever event the kernel orders first. The two
// subtests construct both same-tick orders: the timeout event armed
// before the cross-LP crossing was scheduled (timeout fires first), and
// armed after (the Put fires first).
func TestQueueGetTimeoutVsCrossLPPut(t *testing.T) {
	const L = 10 * time.Microsecond
	t.Run("timeout-armed-first", func(t *testing.T) {
		h := newLPHarness(2, 1)
		q := NewQueue[int]("q")
		h.ks[0].Spawn("consumer", func(p *Proc) {
			// Parks at t=0; the crossing for t=30 is scheduled at a later
			// barrier, so the timeout event precedes the Put in the tick.
			// Whichever way the queue resolves that, the item must be
			// delivered exactly once, never lost.
			v, ok := q.GetTimeout(p, 30*time.Microsecond)
			if !ok {
				v = q.Get(p)
			}
			if v != 7 {
				t.Errorf("timeout-armed-first: got %d (ok=%v), want 7", v, ok)
			}
			if p.Now() != 30*time.Microsecond {
				t.Errorf("delivered at %v, want 30µs", p.Now())
			}
		})
		h.ks[1].Spawn("producer", func(p *Proc) {
			p.Sleep(20 * time.Microsecond)
			h.post(1, 0, p.Now()+L, func() { q.Put(7) }) // lands exactly at t=30
		})
		NewLPSet(h.ks, L, h.exchange).Run()
	})
	t.Run("put-scheduled-first", func(t *testing.T) {
		h := newLPHarness(2, 1)
		q := NewQueue[int]("q")
		h.ks[0].Spawn("consumer", func(p *Proc) {
			// The crossing for t=30 is already in LP 0's heap when this
			// deadline is armed at t=12, so the Put precedes the timeout.
			p.Sleep(12 * time.Microsecond)
			v, ok := q.GetTimeout(p, 18*time.Microsecond)
			if !ok {
				v = q.Get(p)
			}
			if v != 7 {
				t.Errorf("put-scheduled-first: got %d (ok=%v), want 7", v, ok)
			}
			if p.Now() != 30*time.Microsecond {
				t.Errorf("delivered at %v, want 30µs", p.Now())
			}
		})
		h.ks[1].Spawn("producer", func(p *Proc) {
			h.post(1, 0, 30*time.Microsecond, func() { q.Put(7) })
		})
		NewLPSet(h.ks, L, h.exchange).Run()
	})
}

// TestDaemonWakeAtRearmWhileWakeInFlight: re-arming from inside the
// executing step (the wake is in flight, nothing is scheduled), then
// pulling that re-armed deadline earlier from outside, then absorbing a
// later request — the retransmit-timer lifecycle under the parallel
// kernel's windowed execution.
func TestDaemonWakeAtRearmWhileWakeInFlight(t *testing.T) {
	k := New(1)
	var steps []Time
	var d *Daemon
	d = k.NewDaemon("timer", func() {
		steps = append(steps, d.Now())
		if len(steps) == 1 {
			// In-flight re-arm: the triggering wake has been consumed, so
			// this must schedule a fresh step, not be absorbed.
			d.WakeAt(d.Now() + 20*time.Microsecond)
		}
	})
	k.Spawn("driver", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		d.Wake() // step 1 at t=10; re-arms itself for t=30
		p.Sleep(5 * time.Microsecond)
		d.WakeAt(18 * time.Microsecond) // pulls the pending t=30 step to t=18
		p.Sleep(time.Microsecond)
		d.WakeAt(25 * time.Microsecond) // later than pending t=18: absorbed
		p.Sleep(20 * time.Microsecond)
	})
	k.Run()
	want := []Time{10 * time.Microsecond, 18 * time.Microsecond}
	if len(steps) != len(want) {
		t.Fatalf("steps at %v, want %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("step %d at %v, want %v", i, steps[i], want[i])
		}
	}
}

// TestDaemonWakeAtSameTickRearm: WakeAt(now) from inside the step runs
// the daemon again within the same tick exactly once — the degenerate
// in-flight re-arm.
func TestDaemonWakeAtSameTickRearm(t *testing.T) {
	k := New(1)
	runs := 0
	var d *Daemon
	d = k.NewDaemon("again", func() {
		runs++
		if runs == 1 {
			d.WakeAt(d.Now())
		}
	})
	k.Spawn("driver", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		d.Wake()
		p.Sleep(5 * time.Microsecond)
	})
	k.Run()
	if runs != 2 {
		t.Errorf("daemon stepped %d times, want 2", runs)
	}
}

// TestLPSetArrivalBeforePeekedEvent: a window's horizon check takes
// LP 1's next event, at H+5µs past the horizon H, as the queue minimum
// without running it; LP 0 then sends LP 1 an arrival for H+2µs. The
// arrival lands below the minimum the queue has taken and must still
// run first, at its own time, identically on every run.
func TestLPSetArrivalBeforePeekedEvent(t *testing.T) {
	const L = 10 * time.Microsecond
	const H = L // the first window starts at LP 0's event at 0
	type fired struct {
		what string
		at   Time
	}
	run := func() []fired {
		h := newLPHarness(2, 1)
		var log []fired
		h.ks[1].ScheduleRunnerAt(H+5*time.Microsecond, funcRunner(func() {
			log = append(log, fired{"local", h.ks[1].Now()})
		}))
		h.ks[0].ScheduleRunnerAt(0, funcRunner(func() {
			h.post(0, 1, H+2*time.Microsecond, func() {
				log = append(log, fired{"arrival", h.ks[1].Now()})
			})
		}))
		NewLPSet(h.ks, L, h.exchange).Run()
		return log
	}
	want := []fired{{"arrival", H + 2*time.Microsecond}, {"local", H + 5*time.Microsecond}}
	for i := 0; i < 10; i++ {
		if got := run(); !slices.Equal(got, want) {
			t.Fatalf("run %d: LP 1 ran %v, want %v", i, got, want)
		}
	}
}

// TestSpawnBeforeSkimmedEvent: NextEventTime skims a canceled entry that
// lies later than the clock and takes the next live one as the queue
// minimum; a process spawned afterwards, at the clock, lands below that
// minimum and must still start at the clock, ahead of it.
func TestSpawnBeforeSkimmedEvent(t *testing.T) {
	k := New(1)
	var log []string
	k.cancel(k.schedule(10*time.Microsecond, funcRunner(func() { log = append(log, "canceled") })))
	k.After(20*time.Microsecond, func() { log = append(log, fmt.Sprint("timer@", k.Now())) })
	if next, ok := k.NextEventTime(); !ok || next != 20*time.Microsecond {
		t.Fatalf("NextEventTime = %v, %v; want 20µs, true", next, ok)
	}
	k.Spawn("late", func(p *Proc) {
		log = append(log, fmt.Sprint("spawned@", p.Now()))
		p.Sleep(30 * time.Microsecond) // outlive the timer
	})
	k.Run()
	if want := []string{"spawned@0s", "timer@20µs"}; !slices.Equal(log, want) {
		t.Fatalf("ran %q, want %q", log, want)
	}
}
