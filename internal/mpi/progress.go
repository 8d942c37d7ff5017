package mpi

import (
	"fmt"

	"abred/internal/gm"
	"abred/internal/sim"
)

// This file is the MPICH communication progress engine of Fig. 4. The
// white boxes (default logic) are matchOrQueue and the rendezvous
// handlers; the gray boxes (the paper's addition) are the abHook
// dispatch in handlePacket.

// ProgressPoll drains every packet currently delivered by the NIC
// without blocking. This is "application triggers progress": it runs
// whenever the application is inside an MPI call.
func (pr *Process) ProgressPoll() {
	for {
		pkt, ok := pr.nic.Poll()
		if !ok {
			return
		}
		pr.handlePacket(pkt)
	}
}

// ProgressUntil drives progress until done() holds. While no packets are
// available the process parks, but the parked time is charged as CPU:
// MPICH-over-GM *polls* the network, so a blocked MPI call burns cycles —
// the exact effect the paper's application bypass removes from internal
// nodes (§I).
func (pr *Process) ProgressUntil(done func() bool) {
	for !done() {
		pr.ProgressPoll()
		if done() {
			return
		}
		t0 := pr.P.Now()
		pkt := pr.nic.Recv(pr.P)
		waited := pr.P.Now() - t0
		pr.P.AddBusy(waited)
		pr.Stats.PollBusy += waited
		pr.handlePacket(pkt)
	}
}

// ProgressFor polls for at most d, charging the time as CPU; it is used
// by the §IV-E exit-delay optimization. Returns true if a packet was
// handled.
func (pr *Process) ProgressFor(d sim.Time) bool {
	t0 := pr.P.Now()
	pkt, ok := pr.nic.RecvTimeout(pr.P, d)
	waited := pr.P.Now() - t0
	pr.P.AddBusy(waited)
	pr.Stats.PollBusy += waited
	if !ok {
		return false
	}
	pr.handlePacket(pkt)
	return true
}

// handlePacket routes one packet through the progress logic of Fig. 4:
// application-bypass pre-processing first (gray), then default MPICH
// matching and queuing (white).
func (pr *Process) handlePacket(pkt *gm.Packet) {
	pr.nic.ReturnRecvToken()    // the packet's host buffer recycles here
	pr.P.Spin(pr.CM.PollIter()) // dequeue + dispatch cost
	if pkt.Retries > 0 {
		// The fabric lost (at least) the first copy; GM's reliability
		// layer resent it. The progress engine counts these so the
		// loss experiments can report how often a collective stalled
		// on a retransmission rather than on computation skew.
		pr.Stats.RetriedMsgs++
	}
	if pkt.IsCollective() && pr.nic.ConsumePendingSignal() {
		// The NIC raised a signal for this packet but progress got here
		// first. The kernel trap still interrupted the host (§V-C: the
		// signal is "simply ignored", but not free).
		pr.P.Spin(pr.CM.SignalIgnoredOvh())
		pr.Stats.SignalsIgnored++
	}
	if pr.abHook != nil && (pkt.Type == gm.Collective || pkt.Type == gm.CollectiveRTS) && pr.abHook(pkt) {
		if pkt.Type == gm.Collective {
			// The hook combined or copied the payload out; RTS packets
			// are the only kind it retains (in a queued announcement).
			pr.nic.PutPacket(pkt)
		}
		return
	}
	switch pkt.Type {
	case gm.Eager, gm.Collective, gm.NICCollective:
		// A NICCollective packet reaching the host is a final result
		// the firmware delivered; it matches like any eager message.
		pr.matchOrQueue(pkt)
		// matchOrQueue copies the payload out on both branches, so the
		// packet is dead here and can recycle into the eager pool.
		pr.nic.PutPacket(pkt)
	case gm.RendezvousRTS, gm.CollectiveRTS:
		pr.handleRTS(pkt) // may retain pkt in the unexpected queue
	case gm.RendezvousCTS, gm.CollectiveCTS:
		pr.handleCTS(pkt)
		pr.nic.PutPacket(pkt)
	case gm.RendezvousData, gm.CollectiveData:
		pr.handleData(pkt)
		pr.nic.PutPacket(pkt)
	default:
		panic(fmt.Sprintf("mpi: unknown packet type %v", pkt.Type))
	}
}

// matchOrQueue implements the default eager receive path: match a posted
// receive (one host copy, packet buffer → user buffer) or buffer the
// payload in the unexpected queue (first of two copies).
func (pr *Process) matchOrQueue(pkt *gm.Packet) {
	pr.P.Spin(pr.CM.QueueSearch(len(pr.posted)))
	for i, req := range pr.posted {
		if !reqMatches(req, pkt) {
			continue
		}
		pr.posted = append(pr.posted[:i], pr.posted[i+1:]...)
		if len(pkt.Data) > len(req.buf) {
			panic(fmt.Sprintf("mpi: truncation: %d-byte message into %d-byte receive (src %d tag %d)",
				len(pkt.Data), len(req.buf), pkt.SrcRank, pkt.Tag))
		}
		pr.chargeCopy(len(pkt.Data))
		copy(req.buf, pkt.Data)
		req.complete(int(pkt.SrcRank), pkt.Tag, len(pkt.Data))
		pr.Stats.ExpectedMsgs++
		return
	}
	pr.chargeCopy(len(pkt.Data))
	m := pr.getUMsg()
	m.ctx = pkt.Ctx
	m.tag = pkt.Tag
	m.srcRank = pkt.SrcRank
	m.data = append(m.data[:0], pkt.Data...)
	m.at = pr.P.Now()
	pr.unexpected = append(pr.unexpected, m)
	pr.Stats.UnexpectedMsgs++
}

// handleRTS matches a rendezvous announcement against posted receives or
// queues it.
func (pr *Process) handleRTS(pkt *gm.Packet) {
	pr.P.Spin(pr.CM.QueueSearch(len(pr.posted)))
	for i, req := range pr.posted {
		if !reqMatches(req, pkt) {
			continue
		}
		pr.posted = append(pr.posted[:i], pr.posted[i+1:]...)
		pr.acceptRendezvous(req, pkt)
		pr.Stats.ExpectedMsgs++
		return
	}
	m := pr.getUMsg()
	m.ctx = pkt.Ctx
	m.tag = pkt.Tag
	m.srcRank = pkt.SrcRank
	m.rts = pkt
	m.at = pr.P.Now()
	pr.unexpected = append(pr.unexpected, m)
	pr.Stats.UnexpectedMsgs++
}

// handleCTS releases the pinned data of a pending rendezvous send.
func (pr *Process) handleCTS(pkt *gm.Packet) {
	req, ok := pr.sendRv[pkt.Handle]
	if !ok {
		panic(fmt.Sprintf("mpi: CTS for unknown handle %d", pkt.Handle))
	}
	delete(pr.sendRv, pkt.Handle)
	typ := gm.RendezvousData
	if req.collective {
		typ = gm.CollectiveData
	}
	data := &gm.Packet{
		Type:    typ,
		DstNode: req.dst,
		SrcRank: int32(pr.rank),
		Root:    pkt.Root,
		Seq:     pkt.Seq,
		Handle:  req.handle,
		Data:    req.data, // sent from pinned memory: no host copy
	}
	pr.nic.Send(pr.P, data)
	pr.Mem.Unpin(pr.P, req.pinned)
	req.pinned = nil
	req.done = true
	if req.onComplete != nil {
		fn := req.onComplete
		req.onComplete = nil
		fn()
	}
}

// handleData lands rendezvous payload directly in the user buffer (DMA,
// no host copy) and completes the receive.
func (pr *Process) handleData(pkt *gm.Packet) {
	req, ok := pr.recvRv[pkt.Handle]
	if !ok {
		panic(fmt.Sprintf("mpi: data for unknown handle %d", pkt.Handle))
	}
	delete(pr.recvRv, pkt.Handle)
	copy(req.buf, pkt.Data) // models the DMA landing; charged at the NIC
	pr.Mem.Unpin(pr.P, req.pinned)
	req.pinned = nil
	req.complete(req.status.Source, req.status.Tag, len(pkt.Data))
}

// reqMatches applies MPI matching semantics between a posted receive and
// an incoming envelope.
func reqMatches(req *Request, pkt *gm.Packet) bool {
	return req.ctx == pkt.Ctx &&
		(req.src == AnySource || int32(req.src) == pkt.SrcRank) &&
		(req.tag == AnyTag || req.tag == pkt.Tag)
}

// UnexpectedLen reports the depth of the MPICH unexpected queue.
func (pr *Process) UnexpectedLen() int { return len(pr.unexpected) }
