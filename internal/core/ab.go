package core

import (
	"abred/internal/coll"
	"abred/internal/mpi"
)

// Reduce is the application-bypass reduction (§V). It is call-compatible
// with coll.Reduce: every rank calls it, recvbuf receives the result at
// root. Root and leaf ranks, and messages beyond the eager limit, fall
// back to the default synchronous path (§V-B); internal ranks run the
// split synchronous/asynchronous logic of Figs. 3 and 5 and may return
// before all of their children have arrived.
func (e *Engine) Reduce(c *mpi.Comm, sendbuf, recvbuf []byte, count int, dt mpi.Datatype, op mpi.Op, root int) {
	pr := e.pr
	if c.Proc() != pr {
		panic("core: communicator belongs to a different process")
	}
	tIn := pr.P.Now()
	defer func() { e.trace('R', tIn, pr.P.Now()) }()
	n := count * dt.Size()
	seq := c.NextSeq(mpi.CtxReduce)

	if n > pr.CM.EagerThreshold() && !e.rendezvousAB {
		// Rendezvous-sized messages: standard reduction (§V-B). With
		// EnableRendezvousAB the bypass path below handles them too.
		e.Metrics.SizeFallbacks++
		coll.ReduceOn(c, coll.Binomial(root, c.Size()), mpi.CtxReduce, seq, sendbuf, recvbuf, count, dt, op, false)
		return
	}

	rank := c.Rank()
	t := e.treeFor(c, mpi.CtxReduce, root)

	if rank == root {
		// The root must block until the reduction completes (the MPI
		// standard makes MPI_Reduce blocking), so it gains nothing from
		// bypass and uses the default synchronous code (§II, §V-B). Its
		// children still send collective-typed packets; the Fig. 4 root
		// check passes them through to default matching.
		e.Metrics.RootReductions++
		coll.ReduceOn(c, t, mpi.CtxReduce, seq, sendbuf, recvbuf, count, dt, op, true)
		return
	}
	if t.ChildCount(rank) == 0 {
		// A leaf's only action is one send to its parent (§II).
		e.Metrics.LeafReductions++
		pr.Send(mpi.SendArgs{
			Dst: c.World(t.Parent(rank)), Ctx: c.Ctx(mpi.CtxReduce), Tag: coll.SeqTag(seq), Data: sendbuf[:n],
			Collective: true, Root: int32(c.World(root)), Seq: seq,
		})
		return
	}

	// Internal node: the synchronous component of Fig. 3.
	e.Metrics.ABReductions++
	d := e.beginInternal(c, t, mpi.CtxReduce, seq, sendbuf, count, dt, op, nil, nil)
	e.syncPhase(d, c.Size(), count)
}

// treeFor returns the tree a reduction instance runs over — the one home
// of the rule for when an installed topology-aware tree applies: only on
// the world communicator (trees are keyed by world (root, size); on a
// sub-communicator a size collision would pick up the wrong shape), only
// on the blocking reduce context (the split-phase operations run every
// rank on the binomial shape), and only when root and size match the
// tree's. Everything else reduces over the binomial tree.
func (e *Engine) treeFor(c *mpi.Comm, kind mpi.CtxKind, root int) coll.Tree {
	if e.tree != nil && c.IsWorld() && kind == mpi.CtxReduce {
		if t := e.tree.Tree(); t.Root() == root && t.Size() == c.Size() {
			return t
		}
	}
	return coll.Binomial(root, c.Size())
}

// beginInternal disables signals, builds the reduce descriptor and
// enqueues it, then consumes any early messages already buffered in the
// AB unexpected queue (Fig. 3: Disable signals → Enqueue reduce
// descriptor; §IV-C). t is the instance's tree (treeFor).
func (e *Engine) beginInternal(c *mpi.Comm, t coll.Tree, kind mpi.CtxKind, seq uint64, sendbuf []byte, count int, dt mpi.Datatype, op mpi.Op, req *Request, recvbuf []byte) *descriptor {
	pr := e.pr
	n := count * dt.Size()
	rank := c.Rank()

	pr.NIC().DisableSignals()

	// The descriptor, its accumulator and its child list all come from
	// the engine's recycle pool; every field is overwritten here.
	d := e.getDesc()
	if cap(d.acc) >= n {
		d.acc = d.acc[:n]
	} else {
		d.acc = make([]byte, n)
	}
	pr.P.Spin(pr.CM.HostCopy(n))
	copy(d.acc, sendbuf[:n])

	d.ctx = c.Ctx(kind)
	d.seq = seq
	d.tag = coll.SeqTag(seq)
	// The descriptor lives in world rank space: packets match on their
	// world SrcRank and the upward send addresses a world rank, so root,
	// parent and the pending list are all translated here (identity on
	// the world communicator, where the tree math already is world-wide).
	d.root = c.World(t.Root())
	d.parent = t.Parent(rank)
	d.pending = t.AppendChildren(d.pending[:0], rank)
	if d.parent >= 0 {
		d.parent = c.World(d.parent)
	}
	for i, ch := range d.pending {
		d.pending[i] = c.World(ch)
	}
	d.count = count
	d.dt = dt
	d.op = op
	d.req = req
	d.recvbuf = recvbuf
	d.completed = false
	e.pushDesc(d)
	e.drainUBQ(d)
	return d
}

// syncPhase walks the remaining children inside the Reduce call: drain
// whatever the NIC already delivered, optionally linger for stragglers
// per the §IV-E delay policy, then delegate the rest to the asynchronous
// component and return (Fig. 3 right-hand column).
func (e *Engine) syncPhase(d *descriptor, size, count int) {
	pr := e.pr
	e.inSync++

	// Trigger progress: the hook consumes our children's packets.
	pr.ProgressPoll()

	if !d.completed {
		if wait := e.delay.Delay(size, count); wait > 0 {
			deadline := pr.P.Now() + wait
			for !d.completed && pr.P.Now() < deadline {
				if pr.ProgressFor(deadline - pr.P.Now()) {
					if !d.completed {
						continue
					}
					e.Metrics.DelayHits++
				}
			}
			if !d.completed {
				e.Metrics.DelayExpirations++
			}
		}
	}

	e.inSync--
	// Fig. 3 exit arc: enable signals iff reductions remain outstanding.
	e.updateSignals()
}
