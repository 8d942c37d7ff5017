package core

import (
	"abred/internal/coll"
	"abred/internal/mpi"
)

// Request is the completion handle of a split-phase collective.
type Request struct {
	e    *Engine
	done bool
	// onDone, if set, runs exactly once when the operation completes —
	// possibly in asynchronous (signal-handler) context. The split-phase
	// synchronizing collectives use it to chain phases (§II: barrier and
	// allreduce "could even benefit ... if they are implemented in a
	// split-phase manner").
	onDone func()
}

// complete marks the request done and fires the chained continuation.
func (r *Request) complete() {
	if r.done {
		return
	}
	r.done = true
	if r.onDone != nil {
		fn := r.onDone
		r.onDone = nil
		fn()
	}
}

// setOnDone installs a continuation, running it immediately if the
// request already completed.
func (r *Request) setOnDone(fn func()) {
	if r.done {
		fn()
		return
	}
	r.onDone = fn
}

// Done reports whether the operation has completed locally.
func (r *Request) Done() bool { return r.done }

// Wait drives progress until the operation completes locally. The time
// spent blocked burns CPU, like any MPICH polling wait; the point of the
// split-phase form is to place Wait after useful computation.
func (r *Request) Wait() {
	r.e.pr.ProgressUntil(func() bool { return r.done })
}

// IReduce is the split-phase application-bypass reduction the paper
// sketches in §II: because the caller gets a Request instead of blocking
// semantics, the *root* can also run in bypass mode — its descriptor
// carries no parent and completion deposits the result into recvbuf.
// Every rank must eventually Wait (or poll Done) on the returned
// request; at the root that marks result availability, elsewhere it
// marks when this process's obligations (including forwarding to the
// parent) are discharged.
func (e *Engine) IReduce(c *mpi.Comm, sendbuf, recvbuf []byte, count int, dt mpi.Datatype, op mpi.Op, root int) *Request {
	pr := e.pr
	if c.Proc() != pr {
		panic("core: communicator belongs to a different process")
	}
	n := count * dt.Size()
	seq := c.NextSeq(mpi.CtxIReduce)

	if n > pr.CM.EagerThreshold() {
		e.Metrics.SizeFallbacks++
		coll.ReduceOn(c, coll.Binomial(root, c.Size()), mpi.CtxIReduce, seq, sendbuf, recvbuf, count, dt, op, false)
		return &Request{e: e, done: true}
	}

	rank := c.Rank()
	t := e.treeFor(c, mpi.CtxIReduce, root)

	if t.ChildCount(rank) == 0 {
		if rank == root { // single-rank communicator
			copy(recvbuf[:n], sendbuf[:n])
			return &Request{e: e, done: true}
		}
		e.Metrics.LeafReductions++
		pr.Send(mpi.SendArgs{
			Dst: c.World(t.Parent(rank)), Ctx: c.Ctx(mpi.CtxIReduce), Tag: coll.SeqTag(seq), Data: sendbuf[:n],
			Collective: true, Root: int32(c.World(root)), Seq: seq,
		})
		return &Request{e: e, done: true}
	}

	if rank == root {
		e.Metrics.RootReductions++
	} else {
		e.Metrics.ABReductions++
	}
	req := &Request{e: e}
	e.beginInternal(c, t, mpi.CtxIReduce, seq, sendbuf, count, dt, op, req, recvbuf)
	// Split-phase: one progress pass, no lingering — asynchrony is the
	// whole point here.
	e.inSync++
	pr.ProgressPoll()
	e.inSync--
	e.updateSignals()
	return req
}

// Allreduce combines application-bypass reduction to rank 0 with the
// default binomial broadcast of the result. Allreduce is inherently
// synchronizing — every rank needs the result — so per §II only a
// split-phase usage can profit from bypass; the AB reduction still
// removes the internal ranks' polling waste on the way up, while the
// default broadcast avoids keeping NIC signals permanently enabled.
func (e *Engine) Allreduce(c *mpi.Comm, sendbuf, recvbuf []byte, count int, dt mpi.Datatype, op mpi.Op) {
	n := count * dt.Size()
	e.Reduce(c, sendbuf, recvbuf, count, dt, op, 0)
	coll.Bcast(c, recvbuf[:n], count, dt, 0)
}
