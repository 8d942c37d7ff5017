package gm

import (
	"testing"
	"time"

	"abred/internal/fabric"
	"abred/internal/model"
	"abred/internal/sim"
)

const us = time.Microsecond

func pair(seed int64) (*sim.Kernel, *NIC, *NIC) {
	k := sim.New(seed)
	costs := model.DefaultCosts()
	fab := fabric.New(k, 2, costs)
	cm := model.NewCostModel(model.Uniform(1)[0], costs)
	return k, NewNIC(k, 0, cm, fab), NewNIC(k, 1, cm, fab)
}

func TestSendDeliver(t *testing.T) {
	k, a, b := pair(1)
	k.Spawn("sender", func(p *sim.Proc) {
		a.Send(p, &Packet{Type: Eager, DstNode: 1, Tag: 9, SrcRank: 0, Data: []byte{1, 2, 3}})
	})
	var got *Packet
	k.Spawn("recv", func(p *sim.Proc) {
		got = b.Recv(p)
	})
	k.Run()
	if got == nil || got.Tag != 9 || len(got.Data) != 3 || got.SrcNode != 0 {
		t.Fatalf("got %+v", got)
	}
	if b.Stats().Received != 1 || a.Stats().Sent != 1 {
		t.Errorf("stats wrong: a=%+v b=%+v", a.Stats(), b.Stats())
	}
}

func TestFIFODelivery(t *testing.T) {
	k, a, b := pair(2)
	const n = 50
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			a.Send(p, &Packet{Type: Eager, DstNode: 1, Seq: uint64(i), Data: make([]byte, 1+i%7)})
		}
	})
	k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pkt := b.Recv(p)
			if pkt.Seq != uint64(i) {
				t.Fatalf("packet %d arrived with seq %d: GM FIFO violated", i, pkt.Seq)
			}
		}
	})
	k.Run()
}

func TestSendTokensBlockAndRecycle(t *testing.T) {
	k, a, b := pair(3)
	const n = DefaultSendTokens * 2
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			// Never blocks forever: tokens recycle as the NIC injects.
			a.Send(p, &Packet{Type: Eager, DstNode: 1, Data: []byte{byte(i)}})
		}
	})
	got := 0
	k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			b.Recv(p)
			got++
		}
	})
	k.Run()
	if got != n {
		t.Fatalf("delivered %d of %d", got, n)
	}
	if a.Stats().TokenStallsHost == 0 {
		t.Error("expected token stalls when flooding twice the token pool")
	}
}

func TestSignalsOnlyForCollectiveAndOnlyWhenEnabled(t *testing.T) {
	k, a, b := pair(4)
	raised := 0
	b.SetSignalHandler(func() { raised++ })
	k.Spawn("sender", func(p *sim.Proc) {
		a.Send(p, &Packet{Type: Eager, DstNode: 1, Data: []byte{1}})      // never signals
		a.Send(p, &Packet{Type: Collective, DstNode: 1, Data: []byte{2}}) // suppressed: disabled
		p.Sleep(100 * us)
		b.EnableSignals()
		a.Send(p, &Packet{Type: Collective, DstNode: 1, Data: []byte{3}}) // signals
	})
	k.Spawn("drain", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			b.Recv(p)
		}
		p.Sleep(200 * us)
	})
	k.Run()
	if raised != 1 {
		t.Errorf("signals raised = %d, want 1", raised)
	}
	if b.Stats().SignalsSuppressed != 1 {
		t.Errorf("suppressed = %d, want 1", b.Stats().SignalsSuppressed)
	}
	if b.Stats().CollectiveArrivals != 2 {
		t.Errorf("collective arrivals = %d, want 2", b.Stats().CollectiveArrivals)
	}
}

func TestSignalCoalescing(t *testing.T) {
	k, a, b := pair(5)
	raised := 0
	b.SetSignalHandler(func() { raised++ })
	b.EnableSignals()
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			a.Send(p, &Packet{Type: Collective, DstNode: 1, Data: []byte{byte(i)}})
		}
	})
	k.Spawn("idle", func(p *sim.Proc) { p.Sleep(2000 * us) })
	k.Run()
	// The pending signal is never consumed, so later arrivals coalesce.
	if raised != 1 {
		t.Errorf("raised = %d, want 1 (coalesced)", raised)
	}
	if !b.ConsumePendingSignal() {
		t.Error("pending signal lost")
	}
	if b.ConsumePendingSignal() {
		t.Error("pending signal consumed twice")
	}
}

func TestFirmwareConsumesPackets(t *testing.T) {
	k, a, b := pair(6)
	seen := 0
	b.SetFirmware(func(fw *FwOps, pkt *Packet) bool {
		if pkt.Type == NICCollective {
			seen++
			return true
		}
		return false
	})
	k.Spawn("sender", func(p *sim.Proc) {
		a.Send(p, &Packet{Type: NICCollective, DstNode: 1, Data: []byte{1}})
		a.Send(p, &Packet{Type: Eager, DstNode: 1, Data: []byte{2}})
	})
	var host *Packet
	k.Spawn("recv", func(p *sim.Proc) { host = b.Recv(p) })
	k.Run()
	if seen != 1 {
		t.Errorf("firmware saw %d packets, want 1", seen)
	}
	if host == nil || host.Type != Eager {
		t.Errorf("host received %+v, want the eager packet", host)
	}
	if b.Stats().FirmwareConsumed != 1 {
		t.Errorf("firmware consumed stat = %d", b.Stats().FirmwareConsumed)
	}
}

func TestDeliverInjectsLocally(t *testing.T) {
	k, a, _ := pair(7)
	var got *Packet
	k.Spawn("host", func(p *sim.Proc) {
		a.Deliver(&Packet{Type: Eager, DstNode: 0, Data: []byte{7}})
		got = a.Recv(p)
	})
	k.Run()
	if got == nil || got.Data[0] != 7 || got.SrcNode != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestRecvTimeout(t *testing.T) {
	k, a, b := pair(8)
	k.Spawn("recv", func(p *sim.Proc) {
		if _, ok := b.RecvTimeout(p, 10*us); ok {
			t.Error("unexpected packet")
		}
		pkt, ok := b.RecvTimeout(p, 10000*us)
		if !ok || pkt.Data[0] != 5 {
			t.Errorf("missed packet: %v %v", pkt, ok)
		}
	})
	k.Spawn("sender", func(p *sim.Proc) {
		p.Sleep(50 * us)
		a.Send(p, &Packet{Type: Eager, DstNode: 1, Data: []byte{5}})
	})
	k.Run()
}

func TestWireSize(t *testing.T) {
	pkt := &Packet{Data: make([]byte, 100)}
	if pkt.WireSize() != 148 {
		t.Errorf("WireSize = %d, want 148", pkt.WireSize())
	}
	if (&Packet{}).WireSize() != HeaderBytes {
		t.Error("empty packet wire size wrong")
	}
}

func TestPacketTypeStrings(t *testing.T) {
	names := map[PacketType]string{
		Eager: "eager", RendezvousRTS: "rts", RendezvousCTS: "cts",
		RendezvousData: "data", Collective: "collective", NICCollective: "nic-collective",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
}

func TestMemRegistry(t *testing.T) {
	k := sim.New(9)
	cm := model.NewCostModel(model.Uniform(1)[0], model.DefaultCosts())
	r := NewMemRegistry(cm)
	k.Spawn("host", func(p *sim.Proc) {
		t0 := p.Now()
		reg1 := r.Pin(p, 4096)
		if p.Now() == t0 {
			t.Error("pinning must cost time")
		}
		reg2 := r.Pin(p, 8192)
		if r.PinnedBytes() != 12288 || r.PeakBytes() != 12288 || r.Pins() != 2 {
			t.Errorf("registry accounting wrong: %d %d %d", r.PinnedBytes(), r.PeakBytes(), r.Pins())
		}
		r.Unpin(p, reg1)
		if r.PinnedBytes() != 8192 || r.PeakBytes() != 12288 {
			t.Errorf("after unpin: %d peak %d", r.PinnedBytes(), r.PeakBytes())
		}
		defer func() {
			if recover() == nil {
				t.Error("double unpin must panic")
			}
			r.Unpin(p, reg2)
		}()
		r.Unpin(p, reg1)
	})
	k.Run()
}

func TestRecvTokenBackpressure(t *testing.T) {
	k, a, b := pair(10)
	const extra = 20
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < DefaultRecvTokens+extra; i++ {
			a.Send(p, &Packet{Type: Eager, DstNode: 1, Seq: uint64(i), Data: []byte{1}})
		}
	})
	k.Spawn("recv", func(p *sim.Proc) {
		// Let the flood land: only DefaultRecvTokens can be delivered.
		p.Sleep(50 * 1000 * us)
		if b.hostQ.Len() > DefaultRecvTokens {
			t.Errorf("delivered %d packets with only %d receive tokens", b.hostQ.Len(), DefaultRecvTokens)
		}
		// Draining with token recycling releases the rest, in order.
		for i := 0; i < DefaultRecvTokens+extra; i++ {
			pkt := b.Recv(p)
			b.ReturnRecvToken()
			if pkt.Seq != uint64(i) {
				t.Fatalf("packet %d out of order (seq %d)", i, pkt.Seq)
			}
		}
	})
	k.Run()
	if b.Stats().TokenStallsNIC == 0 {
		t.Error("expected NIC-side receive-token stalls")
	}
}
