package fabric

import (
	"testing"
	"time"

	"abred/internal/sim"
	"abred/internal/topo"
)

// buildTopo is build() plus a routed topology.
func buildTopo(n int, spec topo.Spec) (*sim.Kernel, *Fabric, [][]Frame) {
	k, f, got := build(n)
	f.SetTopology(topo.Build(spec, n))
	return k, f, got
}

// TestRoutedHopLatency pins the cut-through arithmetic on the smallest
// two-level tree. 0 -> 2 crosses leaf, spine, leaf: injection
// serialization (400 ns for 100 B) + three hops of prop + switch
// (3 x 800 ns) + one serialization onto each of the two inter-switch
// links (2 x 400 ns) = 2800 ns, versus 1200 ns on the crossbar.
func TestRoutedHopLatency(t *testing.T) {
	k, f, got := buildTopo(4, topo.Spec{Kind: topo.FatTree, K: 4})
	k.After(0, func() {
		f.Send(Frame{Src: 0, Dst: 2, Size: 100, Payload: "x"})
	})
	end := k.Run()
	if len(got[2]) != 1 {
		t.Fatalf("delivered %d frames", len(got[2]))
	}
	if want := 2800 * time.Nanosecond; end != want {
		t.Errorf("routed delivery at %v, want %v", end, want)
	}
	if h := f.Hops(0, 2); h != 3 {
		t.Errorf("Hops(0,2) = %d, want 3", h)
	}
}

// TestRoutedSameLeafMatchesCrossbar: hosts under one leaf switch see
// exactly the single-crossbar timing — the route has no inter-switch
// links, so the arithmetic reduces to the historical charge.
func TestRoutedSameLeafMatchesCrossbar(t *testing.T) {
	k, f, _ := buildTopo(4, topo.Spec{Kind: topo.FatTree, K: 4})
	k.After(0, func() {
		f.Send(Frame{Src: 0, Dst: 1, Size: 100, Payload: "x"})
	})
	if end, want := k.Run(), 1200*time.Nanosecond; end != want {
		t.Errorf("same-leaf delivery at %v, want %v", end, want)
	}
	if h := f.Hops(0, 1); h != 1 {
		t.Errorf("Hops(0,1) = %d, want 1", h)
	}
}

// TestSetTopologyCrossbarIsNoop: a crossbar spec — or a tree small
// enough to fit one switch — must leave the fabric on the original
// nil-topology path, not merely an equivalent one.
func TestSetTopologyCrossbarIsNoop(t *testing.T) {
	_, f, _ := build(8)
	f.SetTopology(topo.Build(topo.Spec{}, 8))
	if f.topo != nil {
		t.Error("crossbar spec installed a topology")
	}
	f.SetTopology(topo.Build(topo.Spec{Kind: topo.FatTree, K: 16}, 8))
	if f.topo != nil {
		t.Error("8 hosts fit one 16-port switch; topology should stay nil")
	}
	if w, wt := f.TopoStats(); w != 0 || wt != 0 {
		t.Errorf("crossbar reports contention %d/%v", w, wt)
	}
}

// TestUplinkContention: two leaf-mates firing at one far destination
// share their leaf's uplink (D-mod-k picks it by destination), so the
// second frame queues behind the first for exactly one serialization.
func TestUplinkContention(t *testing.T) {
	k, f, got := buildTopo(4, topo.Spec{Kind: topo.FatTree, K: 4})
	k.After(0, func() {
		f.Send(Frame{Src: 0, Dst: 2, Size: 100, Payload: "a"})
		f.Send(Frame{Src: 1, Dst: 2, Size: 100, Payload: "b"})
	})
	end := k.Run()
	if len(got[2]) != 2 {
		t.Fatalf("delivered %d frames", len(got[2]))
	}
	waits, waitTime := f.TopoStats()
	if waits == 0 || waitTime == 0 {
		t.Fatalf("no uplink contention recorded (waits=%d waitTime=%v)", waits, waitTime)
	}
	// Frame b waits 400 ns at the shared uplink; the rest of its path
	// pipelines exactly behind a (each stage frees just as b's head
	// arrives), so it lands one wait later: 2800 + 400 = 3200.
	if want := 3200 * time.Nanosecond; end != want {
		t.Errorf("contended delivery at %v, want %v", end, want)
	}
	if got[2][0].Payload != "a" || got[2][1].Payload != "b" {
		t.Errorf("shared-uplink frames reordered: %v, %v", got[2][0].Payload, got[2][1].Payload)
	}
}

// TestRoutedFIFOPerPair: per-(src,dst) FIFO — the GM ordering contract —
// survives multi-hop routing, including flows that cross at shared
// links with wildly varying frame sizes.
func TestRoutedFIFOPerPair(t *testing.T) {
	k, f, got := buildTopo(8, topo.Spec{Kind: topo.FatTree, K: 4})
	k.After(0, func() {
		for i := 0; i < 20; i++ {
			f.Send(Frame{Src: 0, Dst: 6, Size: 4000 - i*150, Payload: i})
			f.Send(Frame{Src: 1, Dst: 6, Size: 50 + i, Payload: 100 + i})
			f.Send(Frame{Src: 5, Dst: 6, Size: 900, Payload: 200 + i})
		}
	})
	k.Run()
	if len(got[6]) != 60 {
		t.Fatalf("delivered %d frames", len(got[6]))
	}
	last := map[int]int{0: -1, 1: 99, 5: 199}
	for _, fr := range got[6] {
		v := fr.Payload.(int)
		if v <= last[fr.Src] {
			t.Fatalf("src %d delivered %d after %d", fr.Src, v, last[fr.Src])
		}
		last[fr.Src] = v
	}
}

// TestOnHopSpans: the per-hop trace hook sees one occupancy per routed
// link, back to back along the path.
func TestOnHopSpans(t *testing.T) {
	k, f, _ := buildTopo(4, topo.Spec{Kind: topo.FatTree, K: 4})
	type hop struct {
		link       int32
		start, end sim.Time
	}
	var hops []hop
	f.OnHop = func(fr Frame, link int32, start, end sim.Time) {
		hops = append(hops, hop{link, start, end})
	}
	k.After(0, func() {
		f.Send(Frame{Src: 0, Dst: 2, Size: 100, Payload: "x"})
	})
	k.Run()
	if len(hops) != 2 {
		t.Fatalf("recorded %d hop spans, want 2", len(hops))
	}
	// Cut-through: the head crosses the uplink at 800 (after injection
	// serialization + host hop), reaches the next link 800 ns later, and
	// each link is held for one serialization while the tail streams.
	want := []hop{
		{hops[0].link, 800 * time.Nanosecond, 1200 * time.Nanosecond},
		{hops[1].link, 1600 * time.Nanosecond, 2000 * time.Nanosecond},
	}
	for i, h := range hops {
		if h != want[i] {
			t.Errorf("hop %d = %+v, want %+v", i, h, want[i])
		}
	}
	if hops[0].link == hops[1].link {
		t.Error("up and down traversed the same directed link")
	}
}

// TestRoutedSendZeroAllocSteadyState: routing must not reintroduce
// per-frame allocations — the Path is caller stack storage and the
// link queues are flat arrays.
func TestRoutedSendZeroAllocSteadyState(t *testing.T) {
	k, f, _ := buildTopo(16, topo.Spec{Kind: topo.FatTree, K: 4})
	payload := &Frame{}
	for i := 0; i < 32; i++ {
		f.Send(Frame{Src: 0, Dst: 15, Size: 64, Payload: payload})
	}
	k.Run()
	if avg := testing.AllocsPerRun(200, func() {
		f.Send(Frame{Src: 0, Dst: 15, Size: 64, Payload: payload})
		k.Run()
	}); avg != 0 {
		t.Errorf("routed fabric.Send allocates %.2f per frame in steady state, want 0", avg)
	}
}

// TestTopoReset: Reset clears link occupancy and contention counters
// but keeps the topology installed — it is a construction-time property
// like the cost table, checked by cluster.Reset.
func TestTopoReset(t *testing.T) {
	k, f, _ := buildTopo(4, topo.Spec{Kind: topo.FatTree, K: 4})
	k.After(0, func() {
		f.Send(Frame{Src: 0, Dst: 2, Size: 100, Payload: "x"})
		f.Send(Frame{Src: 1, Dst: 2, Size: 100, Payload: "y"})
	})
	k.Run()
	if w, _ := f.TopoStats(); w == 0 {
		t.Fatal("setup produced no contention")
	}
	f.Reset()
	if f.topo == nil {
		t.Fatal("Reset dropped the topology")
	}
	if w, wt := f.TopoStats(); w != 0 || wt != 0 {
		t.Fatalf("Reset left contention counters %d/%v", w, wt)
	}
	for i, free := range f.linkFree {
		if free != 0 {
			t.Fatalf("Reset left link %d busy until %v", i, free)
		}
	}
}
