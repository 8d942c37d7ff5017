package gm

import (
	"testing"

	"abred/internal/fabric"
	"abred/internal/fault"
	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/topo"
)

// lossyNICs builds n reliable NICs over a fault-injected fabric of the
// given topology (the zero Spec is the single crossbar), the way
// cluster.New wires them when a fault plan is configured.
func lossyNICs(n int, spec topo.Spec, seed int64, cfg fault.Config) (*sim.Kernel, []*NIC) {
	k := sim.New(seed)
	costs := model.DefaultCosts()
	fab := fabric.New(k, n, costs)
	fab.SetTopology(topo.Build(spec, n))
	if plan := fault.New(cfg); plan != nil {
		fab.SetInjectors([]fabric.Injector{plan})
		fab.OnDrop, fab.ClonePayload = FaultHooks()
	}
	cm := model.NewCostModel(model.Uniform(1)[0], costs)
	nics := make([]*NIC, n)
	for i := range nics {
		nics[i] = NewNIC(k, i, cm, fab)
		nics[i].Reset(true)
	}
	return k, nics
}

// TestRoutedReliableFIFOUnderChaos is the chaos-FIFO property test
// extended to multi-hop routes: three senders on different leaves of
// an 8-host fat-tree (1, 3 and 5 switch crossings away) stream
// numbered packets to one receiver through drops, duplicates and
// reorder jitter. Per-source delivery must stay exactly-once in-order
// even though the flows contend at shared uplinks and the receiver's
// down-path, and retransmitted windows re-cross multiple hops.
func TestRoutedReliableFIFOUnderChaos(t *testing.T) {
	const n = 8
	const per = 40
	k, nics := lossyNICs(n, topo.Spec{Kind: topo.FatTree, K: 4}, 11, fault.Config{
		Seed: 42,
		Rule: fault.Rule{Drop: 0.2, Dup: 0.2, Jitter: 20 * us, JitterP: 0.5},
	})
	senders := []int{1, 2, 6} // same leaf, one tier up, across the spine
	for _, src := range senders {
		src := src
		k.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < per; i++ {
				nics[src].Send(p, &Packet{
					Type: Eager, DstNode: 0, SrcRank: int32(src),
					Seq: uint64(i), Data: make([]byte, 1+i%7),
				})
			}
		})
	}
	next := map[int32]uint64{}
	delivered := 0
	k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < per*len(senders); i++ {
			pkt := nics[0].Recv(p)
			if pkt.Seq != next[pkt.SrcRank] {
				t.Fatalf("src %d delivered seq %d, want %d: FIFO violated on routed path",
					pkt.SrcRank, pkt.Seq, next[pkt.SrcRank])
			}
			next[pkt.SrcRank]++
			delivered++
		}
	})
	k.Run()
	if delivered != per*len(senders) {
		t.Fatalf("delivered %d of %d", delivered, per*len(senders))
	}
	rtx := uint64(0)
	for _, src := range senders {
		rtx += nics[src].Stats().Retransmits
		if err := nics[src].RelError(); err != nil {
			t.Errorf("port died under recoverable loss: %v", err)
		}
	}
	if rtx == 0 {
		t.Error("20%% loss on multi-hop routes produced no retransmissions?")
	}
	assertHome(t, k, nics...)
}

// TestHopScaledRTO: the go-back-N base timeout keys on the routed hop
// count, not just the endpoints — peers behind more switch crossings
// get proportionally more slack before the window resends.
func TestHopScaledRTO(t *testing.T) {
	const n = 16
	k, nics := lossyNICs(n, topo.Spec{Kind: topo.FatTree, K: 4}, 7, fault.Config{})
	_ = k
	r := nics[0].rel
	cases := []struct {
		peer int
		hops int
	}{
		{1, 1},  // same leaf
		{3, 3},  // one tier
		{7, 5},  // two tiers
		{15, 7}, // across the full three-tier spine
	}
	for _, tc := range cases {
		want := relBaseRTO + sim.Time(tc.hops-1)*relHopRTO
		if got := r.linkRTO(tc.peer); got != want {
			t.Errorf("linkRTO to %d = %v, want %v (%d hops)", tc.peer, got, want, tc.hops)
		}
		// The table is built once at wire-up: a second read must agree.
		if got := r.linkRTO(tc.peer); got != want {
			t.Errorf("cached linkRTO to %d = %v, want %v", tc.peer, got, want)
		}
	}
}

// TestCrossbarRTOUnchanged: without a topology every link keeps exactly
// the historical base timeout — part of the crossbar byte-identity
// guarantee.
func TestCrossbarRTOUnchanged(t *testing.T) {
	k, a, _ := lossyPair(9, fault.Config{})
	_ = k
	if got := a.rel.linkRTO(1); got != relBaseRTO {
		t.Errorf("crossbar linkRTO = %v, want relBaseRTO %v", got, relBaseRTO)
	}
}
