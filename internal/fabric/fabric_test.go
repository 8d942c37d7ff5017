package fabric

import (
	"testing"
	"time"

	"abred/internal/model"
	"abred/internal/sim"
)

const us = time.Microsecond

func build(n int) (*sim.Kernel, *Fabric, [][]Frame) {
	k := sim.New(1)
	f := New(k, n, model.DefaultCosts())
	got := make([][]Frame, n)
	for i := 0; i < n; i++ {
		i := i
		f.Connect(i, func(fr Frame) { got[i] = append(got[i], fr) })
	}
	return k, f, got
}

func TestDelivery(t *testing.T) {
	k, f, got := build(3)
	k.After(0, func() {
		f.Send(Frame{Src: 0, Dst: 2, Size: 100, Payload: "x"})
	})
	end := k.Run()
	if len(got[2]) != 1 || got[2][0].Payload != "x" {
		t.Fatalf("delivery failed: %+v", got[2])
	}
	if end <= 0 {
		t.Error("delivery must take time")
	}
	// 100 B at 250 MB/s = 400 ns + 300 ns prop + 500 ns switch.
	want := 1200 * time.Nanosecond
	if end != want {
		t.Errorf("delivery at %v, want %v", end, want)
	}
}

func TestFIFOPerDestination(t *testing.T) {
	k, f, got := build(4)
	k.After(0, func() {
		// Interleave two flows into node 3 with wildly varying sizes:
		// arrival order must match injection order per source, and the
		// ejection link keeps the destination order monotonic overall.
		for i := 0; i < 20; i++ {
			f.Send(Frame{Src: 0, Dst: 3, Size: 4000 - i*150, Payload: i})
			f.Send(Frame{Src: 1, Dst: 3, Size: 50 + i, Payload: 100 + i})
		}
	})
	k.Run()
	if len(got[3]) != 40 {
		t.Fatalf("delivered %d frames", len(got[3]))
	}
	last := map[int]int{0: -1, 1: 99}
	for _, fr := range got[3] {
		v := fr.Payload.(int)
		if v < last[fr.Src]+1 {
			t.Fatalf("per-source FIFO violated: src %d saw %d after %d", fr.Src, v, last[fr.Src])
		}
		last[fr.Src] = v
	}
}

func TestLinkSerialization(t *testing.T) {
	k, f, got := build(2)
	k.After(0, func() {
		f.Send(Frame{Src: 0, Dst: 1, Size: 2500, Payload: 1}) // 10 µs at 250 MB/s
		f.Send(Frame{Src: 0, Dst: 1, Size: 2500, Payload: 2})
	})
	end := k.Run()
	_ = got
	// Two 10 µs serializations back to back plus fixed latency.
	if end < 20*us {
		t.Errorf("injection link did not serialize: finished at %v", end)
	}
}

func TestLoopback(t *testing.T) {
	k, f, got := build(2)
	k.After(0, func() {
		f.Send(Frame{Src: 1, Dst: 1, Size: 64, Payload: "self"})
	})
	k.Run()
	if len(got[1]) != 1 {
		t.Fatal("loopback frame lost")
	}
}

func TestStats(t *testing.T) {
	k, f, _ := build(2)
	k.After(0, func() {
		f.Send(Frame{Src: 0, Dst: 1, Size: 10})
		f.Send(Frame{Src: 0, Dst: 1, Size: 20})
	})
	k.Run()
	frames, bytes := f.Stats()
	if frames != 2 || bytes != 30 {
		t.Errorf("stats = %d frames %d bytes", frames, bytes)
	}
}

func TestBadRoutePanics(t *testing.T) {
	k, f, _ := build(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.After(0, func() {
		f.Send(Frame{Src: 0, Dst: 7, Size: 1})
	})
	k.Run()
}

func TestDoubleConnectPanics(t *testing.T) {
	k := sim.New(1)
	f := New(k, 1, model.DefaultCosts())
	f.Connect(0, func(Frame) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Connect(0, func(Frame) {})
}

func TestUnconnectedDestinationPanics(t *testing.T) {
	k := sim.New(1)
	f := New(k, 2, model.DefaultCosts())
	f.Connect(0, func(Frame) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.After(0, func() { f.Send(Frame{Src: 0, Dst: 1, Size: 1}) })
	k.Run()
}

// TestSinkRunsAtArrival: the Connect sink runs once per frame, in
// scheduler context at the frame's arrival time, which is when the run
// ends.
func TestSinkRunsAtArrival(t *testing.T) {
	k := sim.New(1)
	f := New(k, 2, model.DefaultCosts())
	var arrivals []sim.Time
	f.Connect(0, func(Frame) { t.Error("frame delivered to its sender") })
	f.Connect(1, func(Frame) { arrivals = append(arrivals, k.Now()) })
	k.After(0, func() { f.Send(Frame{Src: 0, Dst: 1, Size: 1}) })
	end := k.Run()
	if len(arrivals) != 1 || arrivals[0] != end || end <= 0 {
		t.Errorf("sink saw arrivals %v, want one at the run's end %v", arrivals, end)
	}
}

// TestEjectionContentionTwoSenders: two nodes each pushing a 10 µs
// frame at the same receiver must serialize on the receiver's ejection
// link — the second frame's head waits for the first to finish
// ejecting. Before the ejection fix both frames "arrived" after a
// single serialization, silently doubling the modeled ejection
// bandwidth under fan-in.
func TestEjectionContentionTwoSenders(t *testing.T) {
	k := sim.New(1)
	f := New(k, 3, model.DefaultCosts())
	arrivals := map[int]sim.Time{}
	for i := 0; i < 3; i++ {
		f.Connect(i, func(fr Frame) { arrivals[fr.Payload.(int)] = k.Now() })
	}
	k.After(0, func() {
		f.Send(Frame{Src: 0, Dst: 2, Size: 2500, Payload: 1}) // 10 µs at 250 MB/s
		f.Send(Frame{Src: 1, Dst: 2, Size: 2500, Payload: 2})
	})
	end := k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(arrivals))
	}
	// Head reaches the switch at 800 ns (prop + hop); first frame ejects
	// over [800 ns, 10.8 µs], the second must queue behind it.
	if arrivals[1] != 10800*time.Nanosecond {
		t.Errorf("first frame arrived at %v, want 10.8µs", arrivals[1])
	}
	if arrivals[2] != 20800*time.Nanosecond {
		t.Errorf("second frame arrived at %v, want 20.8µs (ejection-link contention)", arrivals[2])
	}
	if end != 20800*time.Nanosecond {
		t.Errorf("end = %v", end)
	}
}

// scriptInj replays a fixed verdict sequence, one per Send.
type scriptInj struct {
	verdicts []Verdict
	i        int
}

func (s *scriptInj) Judge(src, dst int) Verdict {
	if s.i >= len(s.verdicts) {
		return Verdict{}
	}
	v := s.verdicts[s.i]
	s.i++
	return v
}

func TestInjectorDrop(t *testing.T) {
	k, f, got := build(2)
	f.SetInjectors([]Injector{&scriptInj{verdicts: []Verdict{{Drop: true}, {}}}})
	var droppedPayload any
	f.OnDrop = func(fr Frame) { droppedPayload = fr.Payload }
	k.After(0, func() {
		f.Send(Frame{Src: 0, Dst: 1, Size: 100, Payload: 1})
		f.Send(Frame{Src: 0, Dst: 1, Size: 100, Payload: 2})
	})
	k.Run()
	if len(got[1]) != 1 || got[1][0].Payload != 2 {
		t.Fatalf("delivered %+v, want only payload 2", got[1])
	}
	if d, _ := f.FaultStats(); d != 1 {
		t.Errorf("dropped = %d, want 1", d)
	}
	if droppedPayload != 1 {
		t.Errorf("OnDrop saw %v, want payload 1", droppedPayload)
	}
}

func TestInjectorDupClonesPayload(t *testing.T) {
	k, f, got := build(2)
	f.SetInjectors([]Injector{&scriptInj{verdicts: []Verdict{{Dup: true}}}})
	f.ClonePayload = func(p any) any { return p.(int) + 100 }
	k.After(0, func() {
		f.Send(Frame{Src: 0, Dst: 1, Size: 100, Payload: 1})
	})
	k.Run()
	if len(got[1]) != 2 {
		t.Fatalf("delivered %d frames, want original + duplicate", len(got[1]))
	}
	if got[1][0].Payload != 1 || got[1][1].Payload != 101 {
		t.Errorf("payloads %v, %v: duplicate must carry the cloned payload", got[1][0].Payload, got[1][1].Payload)
	}
	if _, dup := f.FaultStats(); dup != 1 {
		t.Errorf("duplicated = %d, want 1", dup)
	}
}

// TestInjectorDelayAllowsOvertake: jitter delays delivery without
// holding the ejection link, so a later clean frame overtakes.
func TestInjectorDelayAllowsOvertake(t *testing.T) {
	k, f, got := build(2)
	f.SetInjectors([]Injector{&scriptInj{verdicts: []Verdict{{Delay: 50 * us}, {}}}})
	k.After(0, func() {
		f.Send(Frame{Src: 0, Dst: 1, Size: 100, Payload: 1})
		f.Send(Frame{Src: 0, Dst: 1, Size: 100, Payload: 2})
	})
	k.Run()
	if len(got[1]) != 2 {
		t.Fatalf("delivered %d frames", len(got[1]))
	}
	if got[1][0].Payload != 2 || got[1][1].Payload != 1 {
		t.Errorf("order %v, %v: jittered frame must be overtaken", got[1][0].Payload, got[1][1].Payload)
	}
}

// TestSendZeroAllocSteadyState: injecting and delivering a frame is
// allocation-free once the delivery-record pool and the event pool are
// warm — the per-frame closure and its escaped Frame were two heap
// allocations before the pooled-Runner rewrite.
func TestSendZeroAllocSteadyState(t *testing.T) {
	k, f, _ := build(2)
	payload := &Frame{}       // any pointer payload; boxing a pointer is alloc-free
	for i := 0; i < 32; i++ { // warm the pools
		f.Send(Frame{Src: 0, Dst: 1, Size: 64, Payload: payload})
	}
	k.Run()
	if avg := testing.AllocsPerRun(200, func() {
		f.Send(Frame{Src: 0, Dst: 1, Size: 64, Payload: payload})
		k.Run()
	}); avg != 0 {
		t.Errorf("fabric.Send allocates %.2f per frame in steady state, want 0", avg)
	}
}
