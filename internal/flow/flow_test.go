package flow

import (
	"testing"

	"abred/internal/fault"
	"abred/internal/gm"
	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/topo"
)

func faultDrop(p float64) fault.Config {
	return fault.Config{Rule: fault.Rule{Drop: p}}
}

// rec is a test Handler recording (tag, at) callbacks in order.
type rec struct {
	tags []uint64
	ats  []sim.Time
}

func (r *rec) FlowEvent(tag uint64, at sim.Time) {
	r.tags = append(r.tags, tag)
	r.ats = append(r.ats, at)
}

// mustEqual fails t unless r and o both hold n deliveries, the same
// (tag, at) pairs in the same completion order.
func (r *rec) mustEqual(t *testing.T, o *rec, n int, what string) {
	t.Helper()
	if len(r.tags) != n || len(o.tags) != n {
		t.Fatalf("deliveries %d vs %d, want %d", len(r.tags), len(o.tags), n)
	}
	for i := range r.tags {
		if r.tags[i] != o.tags[i] || r.ats[i] != o.ats[i] {
			t.Fatalf("delivery %d: tag %d at %d vs tag %d at %d %s",
				i, r.tags[i], r.ats[i], o.tags[i], o.ats[i], what)
		}
	}
}

// Default costs: 0.25 bytes/ns wire, 800 ns per switch crossing.
const (
	bps    = 0.25
	hopLat = 800 * sim.Time(1)
)

func newTestNet(t *testing.T, n int, spec topo.Spec) (*sim.Kernel, *Net) {
	t.Helper()
	k := sim.New(1)
	var tp *topo.Topology
	if spec != (topo.Spec{}) {
		tp = topo.Build(spec, n)
	}
	return k, NewNet(k, tp, n, model.DefaultCosts())
}

func TestSingleFlowUncontended(t *testing.T) {
	k, nt := newTestNet(t, 4, topo.Spec{})
	var r rec
	nt.Start(0, 1, 1000, 0, &r, 7)
	k.Run()
	// 1000 bytes at 0.25 B/ns = 4000 ns transfer + one crossbar stage.
	want := sim.Time(4000) + hopLat
	if len(r.ats) != 1 || r.ats[0] != want || r.tags[0] != 7 {
		t.Fatalf("delivery = %v %v, want [%d] tag 7", r.ats, r.tags, want)
	}
	if h := nt.FCTs(); len(h) != 1 || h[want] != 1 {
		t.Fatalf("FCTs = %v, want one flow of %d", h, want)
	}
	if _, _, delayed, _ := nt.Stats(); delayed != 0 {
		t.Fatalf("uncontended flow counted as delayed (%d)", delayed)
	}
}

// Three flows: A: 0->2 (400 B), B: 1->2 (1000 B), C: 0->3 (1000 B), all
// at t=0 on a crossbar. A and B share 2's ejection link, A and C share
// 0's injection link, so max-min gives everyone 1/2 capacity. A drains
// first (t=3200); B and C then share nothing and finish their remaining
// 600 bytes at full rate, t = 3200 + 2400 = 5600.
func TestMaxMinWaterFill(t *testing.T) {
	k, nt := newTestNet(t, 4, topo.Spec{})
	var r rec
	nt.Start(0, 2, 400, 0, &r, 1)
	nt.Start(1, 2, 1000, 0, &r, 2)
	nt.Start(0, 3, 1000, 0, &r, 3)
	k.Run()
	wantA := sim.Time(3200) + hopLat
	wantBC := sim.Time(5600) + hopLat
	if len(r.ats) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(r.ats))
	}
	got := map[uint64]sim.Time{}
	for i, tag := range r.tags {
		got[tag] = r.ats[i]
	}
	if got[1] != wantA || got[2] != wantBC || got[3] != wantBC {
		t.Fatalf("deliveries = %v, want A=%d B=C=%d", got, wantA, wantBC)
	}
	if _, maxAct, delayed, delayTot := nt.Stats(); maxAct != 3 || delayed != 3 || delayTot == 0 {
		t.Fatalf("stats = maxActive %d delayed %d delayTotal %d", maxAct, delayed, delayTot)
	}
}

// A flow joining mid-transfer slows the incumbent from its join instant
// only: D: 0->1 (2000 B) alone until t=4000, then E: 2->1 (1000 B)
// shares 1's ejection link. D has 1000 B left, both run at 1/2 capacity
// (8 ns/B): D ends at 4000+8000=12000, E (started t=4000) reaches its
// last 1000... E finishes at 12000 too, both exactly water-filled.
func TestProgressiveRefill(t *testing.T) {
	k, nt := newTestNet(t, 4, topo.Spec{})
	var r rec
	nt.Start(0, 1, 2000, 0, &r, 1)
	k.After(4000, func() { nt.Start(2, 1, 1000, 0, &r, 2) })
	k.Run()
	want := sim.Time(12000) + hopLat
	if len(r.ats) != 2 || r.ats[0] != want || r.ats[1] != want {
		t.Fatalf("deliveries = %v, want both at %d", r.ats, want)
	}
}

// Flow routes on a fat-tree occupy exactly the links topo.Route
// reports, offset into Net numbering, bracketed by the host links.
func TestRouteLinksMatchTopo(t *testing.T) {
	spec := topo.Spec{Kind: topo.FatTree, K: 4}
	k, nt := newTestNet(t, 16, spec)
	_ = k
	tp := nt.T
	var p topo.Path
	for _, pair := range [][2]int{{0, 1}, {0, 3}, {5, 12}, {15, 2}} {
		src, dst := pair[0], pair[1]
		links := nt.RouteLinks(nil, src, dst)
		tp.Route(src, dst, &p)
		if len(links) != p.N+2 {
			t.Fatalf("%d->%d: %d links, want %d", src, dst, len(links), p.N+2)
		}
		if links[0] != int32(2*src) || links[len(links)-1] != int32(2*dst+1) {
			t.Fatalf("%d->%d: host links wrong: %v", src, dst, links)
		}
		for i := 0; i < p.N; i++ {
			if links[1+i] != int32(2*16)+p.Links[i] {
				t.Fatalf("%d->%d: topo link %d = %d, want %d", src, dst, i, links[1+i], int32(32)+p.Links[i])
			}
		}
	}
}

// Determinism: the same flow program yields byte-identical completion
// sequences on a fresh net and after Reset, and Reset empties the
// completion-time histogram.
func TestNetResetDeterminism(t *testing.T) {
	run := func(nt *Net, k *sim.Kernel) *rec {
		var r rec
		for i := 0; i < 8; i++ {
			src, dst := i%4, (i+1)%4
			sz := 100 + 137*i
			at := sim.Time(i * 500)
			k.After(at, func() { nt.Start(src, dst, sz, 0, &r, uint64(i)) })
		}
		k.Run()
		return &r
	}
	k, nt := newTestNet(t, 4, topo.Spec{})
	first := run(nt, k)
	k.Reset(1)
	nt.Reset()
	if len(nt.FCTs()) != 0 {
		t.Fatalf("FCTs = %v after Reset, want empty", nt.FCTs())
	}
	second := run(nt, k)
	first.mustEqual(t, second, 8, "after Reset")
}

func newTestMachine(n int) (*sim.Kernel, *Machine) {
	k := sim.New(1)
	specs := make([]model.NodeSpec, n)
	for i := range specs {
		specs[i] = model.PIII700PCI64B
	}
	c := model.DefaultCosts()
	return k, NewMachines([]*sim.Kernel{k}, nil, nil, model.SharedCostModels(specs, c), c)
}

// Machine.Send charges source NIC processing, the wire flow (payload +
// header), and destination NIC processing.
func TestMachineSendTiming(t *testing.T) {
	k, m := newTestMachine(4)
	var r rec
	m.Send(0, 0, 1, 1000, &r, 1)
	k.Run()
	cm := m.CMs[0]
	wire := sim.Time(float64(1000+gm.HeaderBytes) / bps)
	want := cm.NICPkt(1000) + wire + hopLat + cm.NICPkt(1000)
	if len(r.ats) != 1 || r.ats[0] != want {
		t.Fatalf("delivery = %v, want [%d]", r.ats, want)
	}
}

// With one send token, a node's second send launches only when the
// first flow completes; with the default allotment the two flows share
// the injection link instead.
func TestSendTokenGate(t *testing.T) {
	k, m := newTestMachine(4)
	m.SendTokens = 1
	var r rec
	m.Send(0, 0, 1, 4096, &r, 1)
	m.Send(0, 0, 2, 4096, &r, 2)
	k.Run()
	if stalls, _, _ := m.Tokens(); stalls != 1 {
		t.Fatalf("hostStalls = %d, want 1", stalls)
	}
	cm := m.CMs[0]
	wire := sim.Time(float64(4096+gm.HeaderBytes) / bps)
	// First flow: NICPkt, then the full wire rate.
	w1 := cm.NICPkt(4096) + wire + hopLat + cm.NICPkt(4096)
	if r.ats[0] != w1 {
		t.Fatalf("first delivery %d, want %d", r.ats[0], w1)
	}
	// Second launches at the first transfer's end (token release),
	// which must be at or after its own NIC injection instant.
	launch := cm.NICPkt(4096) + wire
	if launch < 2*cm.NICPkt(4096) {
		t.Skip("transfer shorter than NIC serialization; gate can't bind")
	}
	w2 := launch + wire + hopLat + m.CMs[2].NICPkt(4096)
	if r.ats[1] != w2 {
		t.Fatalf("second delivery %d, want %d", r.ats[1], w2)
	}
}

// relHandler releases the receive token a fixed host cost after each
// delivery, so the recv-token gate in Machine can bind.
type relHandler struct {
	m    *Machine
	cost sim.Time
	rec
}

func (h *relHandler) FlowEvent(tag uint64, at sim.Time) {
	h.rec.FlowEvent(tag, at)
	h.m.ReleaseRecv(0, at+h.cost)
}

// With one receive token, the second delivery into a node stalls until
// the host returns the first buffer.
func TestRecvTokenGate(t *testing.T) {
	k, m := newTestMachine(4)
	m.RecvTokens = 1
	h := &relHandler{m: m, cost: 50_000}
	m.Send(0, 1, 0, 64, h, 1)
	m.Send(0, 2, 0, 64, h, 2)
	k.Run()
	if _, stalls, _ := m.Tokens(); stalls == 0 {
		t.Fatalf("no recv stalls with RecvTokens=1 and two deliveries")
	}
	if len(h.ats) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(h.ats))
	}
	if h.ats[1] < h.ats[0]+h.cost {
		t.Fatalf("second delivery %d before first release %d", h.ats[1], h.ats[0]+h.cost)
	}

}

// Without receive tokens nothing gates a delivery, so the receive
// ledger records nothing, however many deliveries a node takes.
func TestRecvLedgerEmptyWithoutTokens(t *testing.T) {
	k, m := newTestMachine(4)
	m.RecvTokens = 0
	h := &relHandler{m: m, cost: 1000}
	const n = 2000
	for i := 0; i < n; i++ {
		m.Send(sim.Time(i)*100, 1+i%3, 0, 64, h, uint64(i))
	}
	k.Run()
	if len(h.ats) != n {
		t.Fatalf("deliveries = %d, want %d", len(h.ats), n)
	}
	if rp := m.recvPend[0]; len(rp) != 0 || cap(rp) != 0 {
		t.Fatalf("receive ledger holds %d entries (cap %d) with RecvTokens=0, want none", len(rp), cap(rp))
	}
	if _, stalls, _ := m.Tokens(); stalls != 0 {
		t.Fatalf("%d receive stalls with RecvTokens=0", stalls)
	}
}

// The loss model adds the deterministic expected-retransmission latency
// and counts expected retransmitted frames.
func TestLossExpectation(t *testing.T) {
	k, m := newTestMachine(4)
	if err := m.SetFaults(faultDrop(0.1)); err != nil {
		t.Fatal(err)
	}
	var r rec
	m.Send(0, 0, 1, 64, &r, 1)
	k.Run()

	k2, m2 := newTestMachine(4)
	var r2 rec
	m2.Send(0, 0, 1, 64, &r2, 1)
	k2.Run()

	extra := r.ats[0] - r2.ats[0]
	// One frame, one crossbar crossing: E = p/(1-p) · 150 µs.
	ev := 1 * 0.1 / (1 - 0.1)
	want := sim.Time(ev * float64(gm.BaseRTO(1)))
	if extra != want {
		t.Fatalf("loss latency %d, want %d", extra, want)
	}
	if _, _, retr := m.Tokens(); retr < 0.11 || retr > 0.112 {
		t.Fatalf("expected retransmits %v, want ~0.111", retr)
	}
}

// Unsupported fault features are rejected, not silently mis-modeled.
func TestLossModelRejectsNonUniform(t *testing.T) {
	_, m := newTestMachine(2)
	bad := faultDrop(0.1)
	bad.Dup = 0.5
	if err := m.SetFaults(bad); err == nil {
		t.Fatal("duplication accepted by the flow loss model")
	}
}
