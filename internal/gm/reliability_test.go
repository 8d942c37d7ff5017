package gm

import (
	"testing"

	"abred/internal/fabric"
	"abred/internal/fault"
	"abred/internal/model"
	"abred/internal/sim"
)

// lossyPair builds two reliable NICs over a fault-injected fabric, the
// way cluster.New wires them.
func lossyPair(seed int64, cfg fault.Config) (*sim.Kernel, *NIC, *NIC) {
	k := sim.New(seed)
	costs := model.DefaultCosts()
	fab := fabric.New(k, 2, costs)
	if plan := fault.New(cfg); plan != nil {
		fab.SetInjectors([]fabric.Injector{plan})
		fab.OnDrop, fab.ClonePayload = FaultHooks()
	}
	cm := model.NewCostModel(model.Uniform(1)[0], costs)
	a, b := NewNIC(k, 0, cm, fab), NewNIC(k, 1, cm, fab)
	a.Reset(true)
	b.Reset(true)
	return k, a, b
}

// TestRetransmitRecoversScriptedDrop: the very first frame on (0,1) is
// lost; the retransmit timer must resend it and the receiver must still
// get the payload exactly once.
func TestRetransmitRecoversScriptedDrop(t *testing.T) {
	k, a, b := lossyPair(1, fault.Config{Scripts: []fault.Script{{Src: 0, Dst: 1, Nth: 1}}})
	k.Spawn("sender", func(p *sim.Proc) {
		a.Send(p, &Packet{Type: Eager, DstNode: 1, Tag: 9, Data: []byte{1, 2, 3}})
	})
	var got *Packet
	k.Spawn("recv", func(p *sim.Proc) { got = b.Recv(p) })
	k.Run()
	if got == nil || got.Tag != 9 || len(got.Data) != 3 || got.Data[2] != 3 {
		t.Fatalf("payload not recovered: %+v", got)
	}
	if a.Stats().Retransmits == 0 {
		t.Error("drop recovered without a retransmission?")
	}
	if err := a.RelError(); err != nil {
		t.Errorf("transient loss must not kill the port: %v", err)
	}
}

// TestDuplicateDiscard: every frame on (0,1) is duplicated; the host
// must see each packet exactly once, in order.
func TestDuplicateDiscard(t *testing.T) {
	k, a, b := lossyPair(2, fault.Config{
		Links: []fault.Link{{Src: 0, Dst: 1, Rule: fault.Rule{Dup: 1}}}})
	const n = 10
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			a.Send(p, &Packet{Type: Eager, DstNode: 1, Seq: uint64(i), Data: []byte{byte(i)}})
		}
	})
	k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pkt := b.Recv(p)
			if pkt.Seq != uint64(i) {
				t.Fatalf("packet %d arrived with seq %d", i, pkt.Seq)
			}
		}
		p.Sleep(500 * us) // let the last duplicate land and be discarded
	})
	k.Run()
	if got := b.Stats().RelDupsDropped; got < n {
		t.Errorf("RelDupsDropped = %d, want ≥ %d (one per duplicated frame)", got, n)
	}
}

// TestReliableFIFOUnderChaos: drops, duplicates and reorder jitter in
// both directions must still yield exactly-once in-order delivery —
// the GM guarantee MPICH relies on.
func TestReliableFIFOUnderChaos(t *testing.T) {
	k, a, b := lossyPair(3, fault.Config{
		Seed: 42,
		Rule: fault.Rule{Drop: 0.2, Dup: 0.2, Jitter: 20 * us, JitterP: 0.5},
	})
	const n = 50
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			a.Send(p, &Packet{Type: Eager, DstNode: 1, Seq: uint64(i), Data: make([]byte, 1+i%7)})
		}
	})
	delivered := 0
	k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pkt := b.Recv(p)
			if pkt.Seq != uint64(i) {
				t.Fatalf("packet %d arrived with seq %d: FIFO violated under loss", i, pkt.Seq)
			}
			delivered++
		}
	})
	k.Run()
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	if a.Stats().Retransmits == 0 {
		t.Error("20%% loss produced no retransmissions?")
	}
	if err := a.RelError(); err != nil {
		t.Errorf("port died under recoverable loss: %v", err)
	}
	assertHome(t, k, a, b)
}

// TestPortErrorAfterRetryBudget: a link that eats every frame must
// surface a port error and stop the run instead of hanging it.
func TestPortErrorAfterRetryBudget(t *testing.T) {
	k, a, b := lossyPair(4, fault.Config{
		Links: []fault.Link{{Src: 0, Dst: 1, Rule: fault.Rule{Drop: 1}}}})
	k.Spawn("sender", func(p *sim.Proc) {
		a.Send(p, &Packet{Type: Eager, DstNode: 1, Data: []byte{1}})
	})
	k.Spawn("recv", func(p *sim.Proc) { b.Recv(p) }) // parks forever
	k.Run()                                          // must return, not deadlock-panic
	if err := a.RelError(); err == nil {
		t.Fatal("dead link produced no port error")
	}
	if a.Stats().RelPortErrors != 1 {
		t.Errorf("RelPortErrors = %d, want 1", a.Stats().RelPortErrors)
	}
	if got := int(a.Stats().Retransmits); got != relMaxRounds {
		t.Errorf("retransmit rounds before giving up = %d, want %d", got, relMaxRounds)
	}
}

// TestLossRunDeterminism: the same fault seed gives the same delivery
// times and the same counters, run after run.
func TestLossRunDeterminism(t *testing.T) {
	run := func() ([]sim.Time, Stats, sim.Time) {
		k, a, b := lossyPair(5, fault.Config{
			Seed: 99,
			Rule: fault.Rule{Drop: 0.15, Dup: 0.1, Jitter: 15 * us, JitterP: 0.3},
		})
		const n = 30
		k.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				a.Send(p, &Packet{Type: Eager, DstNode: 1, Data: []byte{byte(i)}})
			}
		})
		var at []sim.Time
		k.Spawn("recv", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				b.Recv(p)
				at = append(at, p.Now())
			}
		})
		end := k.Run()
		return at, a.Stats(), end
	}
	at1, st1, end1 := run()
	at2, st2, end2 := run()
	if end1 != end2 || st1 != st2 {
		t.Fatalf("runs diverged: end %v vs %v, stats %+v vs %+v", end1, end2, st1, st2)
	}
	for i := range at1 {
		if at1[i] != at2[i] {
			t.Fatalf("delivery %d at %v vs %v", i, at1[i], at2[i])
		}
	}
}

// TestReliabilityCleanPathNoRetransmit: on a perfect fabric the enabled
// protocol costs acks only — no retransmissions, no drops, no errors.
func TestReliabilityCleanPathNoRetransmit(t *testing.T) {
	k, a, b := lossyPair(6, fault.Config{})
	const n = 20
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			a.Send(p, &Packet{Type: Eager, DstNode: 1, Data: []byte{byte(i)}})
		}
	})
	k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			b.Recv(p)
		}
	})
	k.Run()
	if s := a.Stats(); s.Retransmits != 0 || s.RelPortErrors != 0 {
		t.Errorf("clean fabric caused recovery traffic: %+v", s)
	}
	if b.Stats().RelDupsDropped != 0 {
		t.Errorf("clean fabric produced duplicates: %+v", b.Stats())
	}
}
