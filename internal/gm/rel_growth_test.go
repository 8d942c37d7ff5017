package gm

import (
	"testing"

	"abred/internal/fabric"
	"abred/internal/fault"
	"abred/internal/sim"
	"abred/internal/topo"
)

// relSettle outlasts any recoverable retransmit chain: eight rounds of
// backoff to the port error sum to under 15 ms on the deepest route.
const relSettle = 50_000 * us

// assertHome is the quiescence invariant of reliable GM: once the
// protocol has gone quiet, every send token is back in its NIC's
// allotment, every retransmit ring is empty, no link is waiting on a
// timer, no port died and nothing undelivered sits in a host queue.
// Kernel.Run returns when the last rank exits — acks for its final
// packets may still be in flight — so the check first lets the timers
// run out under a process that only sleeps.
func assertHome(t *testing.T, k *sim.Kernel, nics ...*NIC) {
	t.Helper()
	k.Spawn("settle", func(p *sim.Proc) { p.Sleep(relSettle) })
	k.Run()
	for _, n := range nics {
		if n.sendTokens != DefaultSendTokens {
			t.Errorf("node %d: %d send tokens at quiescence, want %d", n.node, n.sendTokens, DefaultSendTokens)
		}
		if n.stats.RelPortErrors != 0 || n.relErr != nil {
			t.Errorf("node %d: port error under recoverable loss: %v", n.node, n.relErr)
		}
		if n.HasPackets() {
			t.Errorf("node %d: packets nobody asked for in the host queue", n.node)
		}
		if n.rel == nil {
			continue
		}
		for _, l := range n.rel.links {
			if len(l.ring) != 0 {
				t.Errorf("node %d: %d unacked packets to node %d at quiescence", n.node, len(l.ring), l.peer)
			}
		}
		if len(n.rel.active) != 0 {
			t.Errorf("node %d: %d links still on the timer list at quiescence", n.node, len(n.rel.active))
		}
	}
}

const chaos64Seed = 21

var chaos64Faults = fault.Config{
	Seed: 5,
	Rule: fault.Rule{Drop: 0.05, Dup: 0.05, Jitter: 20 * us, JitterP: 0.3},
}

// chaos64 is the growth workload: 64 reliable NICs on one lossy
// crossbar, every NIC streaming numbered packets
// to all 63 peers round-robin. Each NIC's lookup table doubles four
// times (8 → 128 slots) while its earlier links hold unacked packets
// and armed timers, since the 61 send tokens are held until acked and
// run out inside the first round. Receivers check per-pair FIFO and
// exactly-once delivery as packets arrive.
func chaos64(t *testing.T) (*sim.Kernel, []*NIC) {
	k, nics := lossyNICs(64, topo.Spec{}, chaos64Seed, chaos64Faults)
	startChaos64(t, k, nics)
	return k, nics
}

// startChaos64 spawns chaos64's senders and receivers on k.
func startChaos64(t *testing.T, k *sim.Kernel, nics []*NIC) {
	const rounds = 4
	n := len(nics)
	for i, nic := range nics {
		k.Spawn("send", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				for d := 1; d < n; d++ {
					nic.Send(p, &Packet{
						Type: Eager, DstNode: (i + d) % n, SrcRank: int32(i),
						Seq: uint64(r), Data: make([]byte, 1+d%7),
					})
				}
			}
		})
		k.Spawn("recv", func(p *sim.Proc) {
			next := make([]uint64, n)
			for c := 0; c < rounds*(n-1); c++ {
				pkt := nic.Recv(p)
				if pkt.Seq != next[pkt.SrcRank] {
					t.Fatalf("node %d: src %d delivered seq %d, want %d", i, pkt.SrcRank, pkt.Seq, next[pkt.SrcRank])
				}
				next[pkt.SrcRank]++
				nic.ReturnRecvToken()
				nic.PutPacket(pkt)
			}
		})
	}
}

// TestLinkGrowthUnderLoad: first-contact link state must survive its
// own growth. See chaos64 for the traffic; on top of the delivery
// checks made there, every NIC ends with exactly 63 peers, is home at
// quiescence, and two runs under one seed agree on every counter.
func TestLinkGrowthUnderLoad(t *testing.T) {
	run := func() []Stats {
		k, nics := chaos64(t)
		k.Run()
		assertHome(t, k, nics...)
		stats := make([]Stats, len(nics))
		var rtx, stalls uint64
		for i, n := range nics {
			stats[i] = n.Stats()
			if got := stats[i].RelPeers; got != uint64(len(nics)-1) {
				t.Errorf("node %d: RelPeers = %d, want %d", i, got, len(nics)-1)
			}
			if len(n.rel.tab) < 2*(len(nics)-1) {
				t.Errorf("node %d: %d lookup slots for %d peers; table must stay at most half full",
					i, len(n.rel.tab), len(nics)-1)
			}
			rtx += stats[i].Retransmits
			stalls += stats[i].TokenStallsHost
		}
		if rtx == 0 || stalls == 0 {
			t.Errorf("retransmits %d, token stalls %d: the table did not grow under load", rtx, stalls)
		}
		return stats
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d: runs under one seed diverged:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestResetReusesLinks: a NIC Reset returns every contacted link to the
// free list exactly once, and a rerun of the same traffic opens the
// same links for the same peers — no link is allocated after warm-up,
// and clearing an already clear engine (Reset twice, or a clean run in
// between) moves nothing.
func TestResetReusesLinks(t *testing.T) {
	k, nics := chaos64(t)
	k.Run()
	assertHome(t, k, nics...)
	first := make([]map[int]*relLink, len(nics))
	for i, n := range nics {
		first[i] = map[int]*relLink{}
		for _, l := range n.rel.links {
			first[i][l.peer] = l
		}
	}

	fab := nics[0].fab
	for cycle, reliable := range []bool{true, true, false, true} {
		k.Reset(chaos64Seed)
		fab.Reset()
		for _, n := range nics {
			n.Reset(reliable)
		}
		for i, n := range nics {
			r := n.rel
			if len(r.links) != 0 || len(r.lfree) != len(first[i]) {
				t.Fatalf("cycle %d node %d: %d live and %d free links after Reset, want 0 and %d",
					cycle, i, len(r.links), len(r.lfree), len(first[i]))
			}
			if got := n.Stats().RelPeers; got != 0 {
				t.Fatalf("cycle %d node %d: RelPeers = %d after Reset", cycle, i, got)
			}
		}
	}

	fab.SetInjectors([]fabric.Injector{fault.New(chaos64Faults)})
	fab.OnDrop, fab.ClonePayload = FaultHooks()
	startChaos64(t, k, nics)
	k.Run()
	assertHome(t, k, nics...)
	for i, n := range nics {
		if len(n.rel.lfree) != 0 || len(n.rel.links) != len(first[i]) {
			t.Fatalf("node %d: rerun left %d free and %d live links, want 0 and %d",
				i, len(n.rel.lfree), len(n.rel.links), len(first[i]))
		}
		for _, l := range n.rel.links {
			if first[i][l.peer] != l {
				t.Fatalf("node %d: rerun opened a different link for peer %d", i, l.peer)
			}
		}
	}
}
