package sim

import (
	"slices"
	"testing"
	"time"
)

// The tests of runAhead: a Sleep, Spin or SpinInterruptible whose wake
// would be the next event moves the clock straight to it, and each test
// here pins one of the conditions under which it must park instead.

// TestRunAheadYieldsToEventAtWake: an event already queued at exactly
// the spinner's wake has the lower seq, so it runs first.
func TestRunAheadYieldsToEventAtWake(t *testing.T) {
	k := New(1)
	var log []string
	k.Spawn("spinner", func(p *Proc) {
		k.After(10*time.Microsecond, func() { log = append(log, "event") })
		p.Spin(10 * time.Microsecond)
		log = append(log, "spinner")
	})
	k.Run()
	if want := []string{"event", "spinner"}; !slices.Equal(log, want) {
		t.Fatalf("ran %q, want %q", log, want)
	}
}

// TestRunAheadStopsAtHorizon: on two LPs, a spin whose wake lies past
// the window's horizon parks, so a cross-LP arrival that lands before
// the wake, at the next window, runs first and at its own time.
func TestRunAheadStopsAtHorizon(t *testing.T) {
	const L = 10 * time.Microsecond
	type fired struct {
		what string
		at   Time
	}
	h := newLPHarness(2, 1)
	var log []fired
	h.ks[0].Spawn("spinner", func(p *Proc) {
		p.Spin(15 * time.Microsecond) // the first window's horizon is L
		log = append(log, fired{"spinner", p.Now()})
	})
	h.ks[1].Spawn("sender", func(p *Proc) {
		h.post(1, 0, p.Now()+L, func() { log = append(log, fired{"arrival", h.ks[0].Now()}) })
	})
	NewLPSet(h.ks, L, h.exchange).Run()
	if want := []fired{{"arrival", L}, {"spinner", 15 * time.Microsecond}}; !slices.Equal(log, want) {
		t.Fatalf("LP 0 ran %v, want %v", log, want)
	}
}

// TestRunAheadAfterStop: Stop from inside a process ends the run at the
// clock it was called at; a Spin after it does not move the clock.
func TestRunAheadAfterStop(t *testing.T) {
	k := New(1)
	resumed := false
	k.Spawn("stopper", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		k.Stop()
		p.Spin(10 * time.Microsecond)
		resumed = true
	})
	if end := k.Run(); end != 5*time.Microsecond || k.Now() != end || resumed {
		t.Fatalf("Run ended at %v (Now %v, resumed after Stop %v), want 5µs and no resume", end, k.Now(), resumed)
	}
	k.Shutdown()
}

// TestRunAheadInterruptPreempts: an Interrupt raised by an event during
// a SpinInterruptible still preempts the spin at the event's time.
func TestRunAheadInterruptPreempts(t *testing.T) {
	k := New(1)
	handled := Time(-1)
	var elapsed Time
	var target *Proc
	target = k.Spawn("app", func(p *Proc) {
		k.After(10*time.Microsecond, func() {
			target.Interrupt(func() {
				handled = p.Now()
				p.Spin(5 * time.Microsecond)
			})
		})
		elapsed = p.SpinInterruptible(100 * time.Microsecond)
	})
	k.Run()
	if handled != 10*time.Microsecond || elapsed != 105*time.Microsecond {
		t.Fatalf("handler ran at %v and the spin took %v, want 10µs and 105µs", handled, elapsed)
	}
	if target.Busy() != 105*time.Microsecond {
		t.Fatalf("busy %v, want 105µs", target.Busy())
	}
}

// TestRunAheadCountsEvents: every run-ahead wake counts in Events()
// exactly once, as the wake it replaces would have, and a lone
// process's Spin loop leaves the queue empty.
func TestRunAheadCountsEvents(t *testing.T) {
	const spins = 100
	k := New(1)
	queued := 0
	k.Spawn("spinner", func(p *Proc) {
		for i := 0; i < spins; i++ {
			p.Spin(time.Microsecond)
			queued = max(queued, k.events.len())
		}
	})
	k.Run()
	if queued != 0 {
		t.Fatalf("the spin loop queued up to %d entries, want 0: not the run-ahead path", queued)
	}
	if got := k.Events(); got != spins+1 {
		t.Fatalf("Events() = %d, want %d: the start wake and one per spin", got, spins+1)
	}
}
