package core

import (
	"fmt"

	"abred/internal/coll"
	"abred/internal/gm"
	"abred/internal/mpi"
)

// Application-bypass broadcast, after the authors' companion work
// (ref [8], "Application-Bypass Broadcast in MPICH over GM"). The win is
// the mirror image of reduction: a *late* internal node normally stalls
// its whole subtree, because the payload waits in its NIC until it calls
// MPI_Bcast and forwards. With bypass, arrival triggers forwarding to
// the node's children immediately — the subtree proceeds even though the
// local process has not reached the Bcast call yet.

// bcastKey identifies one broadcast instance.
type bcastKey struct {
	ctx uint16
	seq uint64
}

// bcastInstance is a locally posted broadcast awaiting its payload.
type bcastInstance struct {
	buf  []byte
	n    int
	done bool
	req  *Request
}

// bcastState tracks forwarding duty and early payloads.
type bcastState struct {
	// active turns on with the first Bcast call and keeps NIC signals
	// enabled so forwarding fires asynchronously from then on. (The
	// very first broadcast on a cold process cannot be forwarded early;
	// every later one can.)
	active  bool
	pending map[bcastKey]*bcastInstance
	arrived map[bcastKey][]byte
}

// hookBcast handles a collective broadcast packet inside the progress
// engine: forward down the tree first, then deliver locally.
func (e *Engine) hookBcast(pkt *gm.Packet) bool {
	pr := e.pr
	rank, size := pr.Rank(), pr.Size()
	if int(pkt.Root) == rank {
		return false // a root never receives its own broadcast
	}

	// Forward to this node's subtree children immediately.
	it := coll.Kids(rank, int(pkt.Root), size)
	for child := it.Next(); child >= 0; child = it.Next() {
		pr.Isend(mpi.SendArgs{
			Dst: child, Ctx: pkt.Ctx, Tag: pkt.Tag, Data: pkt.Data,
			Collective: true, Root: pkt.Root, Seq: pkt.Seq,
		})
		e.Metrics.BcastForwards++
	}

	key := bcastKey{ctx: pkt.Ctx, seq: pkt.Seq}
	if inst, ok := e.bcast.pending[key]; ok {
		// Local call already posted: copy straight to the user buffer.
		delete(e.bcast.pending, key)
		pr.P.Spin(pr.CM.HostCopy(len(pkt.Data)))
		pr.Stats.HostCopies++
		pr.Stats.HostCopiedBytes += uint64(len(pkt.Data))
		copy(inst.buf, pkt.Data)
		inst.done = true
		if inst.req != nil {
			inst.req.complete()
		}
		return true
	}

	// Early payload: buffer until the local Bcast call (one copy now,
	// one into the user buffer later — same as a default unexpected
	// message, but the subtree is already unblocked).
	pr.P.Spin(pr.CM.HostCopy(len(pkt.Data)))
	pr.Stats.HostCopies++
	pr.Stats.HostCopiedBytes += uint64(len(pkt.Data))
	e.Metrics.ABCopies++
	e.bcast.arrived[key] = append([]byte(nil), pkt.Data...)
	return true
}

// Bcast is the blocking application-bypass broadcast.
func (e *Engine) Bcast(c *mpi.Comm, buf []byte, count int, dt mpi.Datatype, root int) {
	if req := e.ibcast(c, buf, count, dt, root); req != nil {
		req.Wait()
	}
}

// IBcast is the split-phase form: it returns immediately; Wait blocks
// until the local payload has landed. Root requests complete at once.
func (e *Engine) IBcast(c *mpi.Comm, buf []byte, count int, dt mpi.Datatype, root int) *Request {
	req := e.ibcast(c, buf, count, dt, root)
	if req == nil {
		req = &Request{e: e, done: true}
	}
	return req
}

// ibcast starts a broadcast; a nil return means it already completed.
func (e *Engine) ibcast(c *mpi.Comm, buf []byte, count int, dt mpi.Datatype, root int) *Request {
	pr := e.pr
	if c.Proc() != pr {
		panic("core: communicator belongs to a different process")
	}
	n := count * dt.Size()
	if len(buf) < n {
		panic(fmt.Sprintf("core: bcast buffer %d bytes < %d", len(buf), n))
	}
	seq := c.NextSeq(mpi.CtxBcast)

	if n > pr.CM.EagerThreshold() {
		// Beyond the eager limit: default broadcast (same rule as §V-B).
		e.Metrics.SizeFallbacks++
		coll.BcastWithSeq(c, seq, buf, count, dt, root, false)
		return nil
	}
	if !c.IsWorld() {
		// hookBcast forwards along the *world* tree, which is wrong for a
		// subset of ranks. Sub-communicators take the default binomial
		// broadcast; Collective stays false so the hook never sees it.
		coll.BcastWithSeq(c, seq, buf, count, dt, root, false)
		return nil
	}

	e.bcast.active = true
	e.updateSignals()

	ctx := c.Ctx(mpi.CtxBcast)
	rank, size := c.Rank(), c.Size()
	if rank == root {
		it := coll.Kids(rank, root, size)
		for child := it.Next(); child >= 0; child = it.Next() {
			pr.Isend(mpi.SendArgs{
				Dst: child, Ctx: ctx, Tag: coll.SeqTag(seq), Data: buf[:n],
				Collective: true, Root: int32(root), Seq: seq,
			})
		}
		return nil
	}

	key := bcastKey{ctx: ctx, seq: seq}
	if data, ok := e.bcast.arrived[key]; ok {
		// The payload beat us here and the subtree is already served:
		// just take our copy.
		delete(e.bcast.arrived, key)
		pr.P.Spin(pr.CM.HostCopy(len(data)))
		pr.Stats.HostCopies++
		pr.Stats.HostCopiedBytes += uint64(len(data))
		copy(buf, data)
		return nil
	}

	req := &Request{e: e}
	e.bcast.pending[key] = &bcastInstance{buf: buf[:n], n: n, req: req}
	return req
}

// bcastPendingLen reports posted-but-unarrived broadcasts (tests).
func (e *Engine) bcastPendingLen() int { return len(e.bcast.pending) }

// bcastArrivedLen reports early broadcast payloads (tests).
func (e *Engine) bcastArrivedLen() int { return len(e.bcast.arrived) }
