package mpi

import (
	"fmt"

	"abred/internal/gm"
)

// SendArgs parameterizes a point-to-point (or collective-typed) send.
type SendArgs struct {
	Dst  int
	Ctx  uint16
	Tag  int32
	Data []byte

	// Type selects the wire packet type; zero value means the protocol
	// picks Eager or rendezvous by size. The application-bypass layer
	// sets gm.Collective (§V-A), which requires eager-sized payloads.
	Collective bool
	Root       int32  // collective header: root of the instance
	Seq        uint64 // collective header: instance sequence
}

// Isend starts a send. Eager messages (≤ threshold) complete
// immediately after being copied into the pre-pinned bounce pool and
// handed to the NIC; larger messages run the rendezvous protocol and
// complete when the data has been handed to the NIC.
func (pr *Process) Isend(a SendArgs) *Request {
	if a.Dst < 0 || a.Dst >= pr.size {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d (size %d)", a.Dst, pr.size))
	}
	pr.P.Spin(pr.CM.HostSendOvh())
	n := len(a.Data)
	if n <= pr.CM.EagerThreshold() {
		pr.eagerSend(a, n)
		// The send is already complete (payload copied into the bounce
		// pool), so the shared pre-completed handle serves every caller:
		// Wait is a no-op and SetOnComplete fires immediately on a done
		// request, neither retains the handle.
		pr.eagerDone = Request{pr: pr, kind: reqSendEager, done: true, dst: a.Dst}
		return &pr.eagerDone
	}

	// Rendezvous mode: pin in place, announce, wait for clear-to-send.
	// Collective sends use the collective RTS/Data types so the
	// receiving NIC raises signals at every protocol step (§V-B
	// rendezvous-mode extension).
	req := &Request{pr: pr, kind: reqSendRendezvous, dst: a.Dst, data: a.Data,
		handle: pr.handle(), collective: a.Collective}
	req.pinned = pr.Mem.Pin(pr.P, n)
	pr.sendRv[req.handle] = req
	typ := gm.RendezvousRTS
	if a.Collective {
		typ = gm.CollectiveRTS
	}
	rts := &gm.Packet{
		Type:     typ,
		DstNode:  a.Dst,
		Ctx:      a.Ctx,
		Tag:      a.Tag,
		SrcRank:  int32(pr.rank),
		Root:     a.Root,
		Seq:      a.Seq,
		Handle:   req.handle,
		TotalLen: n,
	}
	pr.nic.Send(pr.P, rts)
	pr.Stats.RendezvousSends++
	return req
}

// eagerSend runs the eager-mode send path shared by Isend and Send: one
// host copy into the bounce pool (§III), packet handed to the NIC. The
// packet and its payload buffer come from the NIC packet pool, so a
// steady-state eager send allocates nothing.
func (pr *Process) eagerSend(a SendArgs, n int) {
	pr.chargeCopy(n)
	typ := gm.Eager
	if a.Collective {
		typ = gm.Collective
	}
	pkt := pr.nic.GetPacket(n)
	pkt.Type = typ
	pkt.DstNode = a.Dst
	pkt.Ctx = a.Ctx
	pkt.Tag = a.Tag
	pkt.SrcRank = int32(pr.rank)
	pkt.Root = a.Root
	pkt.Seq = a.Seq
	copy(pkt.Data, a.Data)
	pr.nic.Send(pr.P, pkt)
	pr.Stats.EagerSends++
}

// Send is the blocking form of Isend. Eager sends complete by the time
// Isend returns, so the blocking form skips the Request entirely — the
// collective hot paths send this way, and the handle would be their only
// steady-state allocation.
func (pr *Process) Send(a SendArgs) {
	n := len(a.Data)
	if n <= pr.CM.EagerThreshold() {
		if a.Dst < 0 || a.Dst >= pr.size {
			panic(fmt.Sprintf("mpi: Send to invalid rank %d (size %d)", a.Dst, pr.size))
		}
		pr.P.Spin(pr.CM.HostSendOvh())
		pr.eagerSend(a, n)
		return
	}
	pr.Isend(a).Wait()
}

// Irecv posts a receive into buf. If a matching message already sits in
// the unexpected queue it completes immediately (paying the second host
// copy, as in MPICH); otherwise the request joins the posted queue.
func (pr *Process) Irecv(ctx uint16, src int, tag int32, buf []byte) *Request {
	req := &Request{pr: pr, kind: reqRecv, ctx: ctx, src: src, tag: tag, buf: buf}
	pr.irecvPosted(req)
	return req
}

// irecvPosted runs the Irecv matching logic on an initialized receive
// request; Recv drives it with a pooled request, Irecv with a fresh one.
func (pr *Process) irecvPosted(req *Request) {
	pr.P.Spin(pr.CM.HostRecvOvh())
	ctx, src, tag, buf := req.ctx, req.src, req.tag, req.buf

	pr.P.Spin(pr.CM.QueueSearch(len(pr.unexpected)))
	for i, m := range pr.unexpected {
		if !m.matches(ctx, src, tag) {
			continue
		}
		pr.unexpected = append(pr.unexpected[:i], pr.unexpected[i+1:]...)
		if m.rts != nil {
			// A queued rendezvous announcement: pin and clear-to-send.
			rts := m.rts
			pr.putUMsg(m)
			pr.acceptRendezvous(req, rts)
			return
		}
		// Buffered eager payload: second copy, temp buffer → user buffer.
		if len(m.data) > len(buf) {
			panic(fmt.Sprintf("mpi: truncation: %d-byte message into %d-byte receive (src %d tag %d)",
				len(m.data), len(buf), m.srcRank, m.tag))
		}
		pr.chargeCopy(len(m.data))
		copy(req.buf, m.data)
		req.complete(int(m.srcRank), m.tag, len(m.data))
		pr.putUMsg(m)
		return
	}

	pr.posted = append(pr.posted, req)
}

// Recv is the blocking form of Irecv; it returns the completion status.
// The request handle never escapes, so it comes from the process's
// request pool and is recycled on return — a steady-state blocking
// receive allocates nothing.
func (pr *Process) Recv(ctx uint16, src int, tag int32, buf []byte) Status {
	req := pr.getReq()
	req.pr = pr
	req.kind = reqRecv
	req.ctx, req.src, req.tag, req.buf = ctx, src, tag, buf
	pr.irecvPosted(req)
	st := req.Wait()
	pr.putReq(req)
	return st
}

// complete finalizes a receive.
func (r *Request) complete(src int, tag int32, count int) {
	r.done = true
	r.status = Status{Source: src, Tag: tag, Count: count}
	if r.onComplete != nil {
		fn := r.onComplete
		r.onComplete = nil
		fn()
	}
}

// RegisterRendezvous accepts an already-received rendezvous
// announcement outside the posted-receive queue: it pins buf, replies
// clear-to-send, and calls onDone once the payload has landed in buf.
// The application-bypass layer uses it to stream large late children
// straight into reduction state (§V-B rendezvous-mode extension).
func (pr *Process) RegisterRendezvous(rts *gm.Packet, buf []byte, onDone func()) {
	if rts.Type != gm.RendezvousRTS && rts.Type != gm.CollectiveRTS {
		panic(fmt.Sprintf("mpi: RegisterRendezvous on %v packet", rts.Type))
	}
	req := &Request{pr: pr, kind: reqRecv, ctx: rts.Ctx, src: int(rts.SrcRank), tag: rts.Tag,
		buf: buf, onComplete: onDone}
	pr.acceptRendezvous(req, rts)
}

// acceptRendezvous pins the receive buffer and sends clear-to-send.
func (pr *Process) acceptRendezvous(req *Request, rts *gm.Packet) {
	if rts.TotalLen > len(req.buf) {
		panic(fmt.Sprintf("mpi: rendezvous message of %d bytes overflows %d-byte receive buffer",
			rts.TotalLen, len(req.buf)))
	}
	req.status = Status{Source: int(rts.SrcRank), Tag: rts.Tag, Count: rts.TotalLen}
	req.pinned = pr.Mem.Pin(pr.P, rts.TotalLen)
	req.handle = rts.Handle
	pr.recvRv[rts.Handle] = req
	typ := gm.RendezvousCTS
	if rts.Type == gm.CollectiveRTS {
		// Keep the whole handshake on the signal-raising types: the
		// sender may be computing when the clear-to-send arrives.
		typ = gm.CollectiveCTS
	}
	cts := &gm.Packet{
		Type:    typ,
		DstNode: int(rts.SrcRank),
		Ctx:     rts.Ctx,
		SrcRank: int32(pr.rank),
		Root:    rts.Root,
		Seq:     rts.Seq,
		Handle:  rts.Handle,
	}
	pr.nic.Send(pr.P, cts)
}
