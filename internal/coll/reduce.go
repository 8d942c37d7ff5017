package coll

import (
	"fmt"

	"abred/internal/mpi"
)

// Reduce performs the default MPICH blocking reduction: every process
// calls it; recvbuf receives the combined result at root only. Internal
// processes block on each child in turn — the synchronization the paper
// identifies as the scalability problem (§I).
func Reduce(c *mpi.Comm, sendbuf, recvbuf []byte, count int, dt mpi.Datatype, op mpi.Op, root int) {
	ReduceOn(c, Binomial(root, c.Size()), mpi.CtxReduce, c.NextSeq(mpi.CtxReduce), sendbuf, recvbuf, count, dt, op, false)
}

// ReduceOn is the blocking reduction over an explicit tree, context
// kind and instance number; the root is the tree's, and every rank must
// pass the same tree. The application-bypass layer uses it for its root
// and fallback paths, so both implementations stay wire-compatible
// within one instance and the split-phase fallback stays on its own
// context. collective selects the GM packet type for the result sent to
// the parent.
func ReduceOn(c *mpi.Comm, t Tree, kind mpi.CtxKind, seq uint64, sendbuf, recvbuf []byte, count int, dt mpi.Datatype, op mpi.Op, collective bool) {
	pr := c.Proc()
	if c.Size() != t.Size() {
		panic(fmt.Sprintf("coll: tree for size %d on a size-%d communicator", t.Size(), c.Size()))
	}
	root := t.Root()
	n := checkReduceArgs(c, sendbuf, recvbuf, count, dt, op, root)
	ctx := c.Ctx(kind)
	tag := SeqTag(seq)
	rank := c.Rank()
	parent := t.Parent(rank)

	if t.ChildCount(rank) == 0 {
		if parent < 0 { // single-process communicator
			copy(recvbuf[:n], sendbuf[:n])
			return
		}
		// Tree math stays in comm-local rank space; peers and the Root
		// header are world-translated at the wire (identity on world).
		pr.Send(mpi.SendArgs{
			Dst: c.World(parent), Ctx: ctx, Tag: tag, Data: sendbuf[:n],
			Collective: collective, Root: int32(c.World(root)), Seq: seq,
		})
		return
	}

	// Accumulate into a temporary so sendbuf stays untouched (MPI
	// semantics); the initial copy is charged like MPICH's. Both scratch
	// buffers come from the process pool and are fully overwritten.
	acc := pr.GetBuf(n)
	pr.P.Spin(pr.CM.HostCopy(n))
	copy(acc, sendbuf[:n])

	tmp := pr.GetBuf(n)
	it := t.Kids(rank)
	for child := it.Next(); child >= 0; child = it.Next() {
		pr.Recv(ctx, c.World(child), tag, tmp)
		pr.P.Spin(pr.CM.ReduceOp(count, dt.Size()))
		mpi.Apply(op, dt, acc, tmp, count)
	}
	pr.PutBuf(tmp)

	if parent < 0 {
		copy(recvbuf[:n], acc)
		pr.PutBuf(acc)
		return
	}
	pr.Send(mpi.SendArgs{
		Dst: c.World(parent), Ctx: ctx, Tag: tag, Data: acc,
		Collective: collective, Root: int32(c.World(root)), Seq: seq,
	})
	if n <= pr.CM.EagerThreshold() {
		// An eager send copied acc out synchronously; a rendezvous data
		// packet still aliases it in flight, so it must not be pooled.
		pr.PutBuf(acc)
	}
}

// SeqTag folds a collective instance number into a message tag — the one
// encoding the default and the application-bypass collectives share on
// the wire.
func SeqTag(seq uint64) int32 { return int32(seq & 0x7FFFFFFF) }

func checkReduceArgs(c *mpi.Comm, sendbuf, recvbuf []byte, count int, dt mpi.Datatype, op mpi.Op, root int) int {
	if count <= 0 {
		panic(fmt.Sprintf("coll: non-positive count %d", count))
	}
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("coll: root %d out of range (size %d)", root, c.Size()))
	}
	if !op.ValidFor(dt) {
		panic(fmt.Sprintf("coll: op %v undefined for %v", op, dt))
	}
	n := count * dt.Size()
	if len(sendbuf) < n {
		panic(fmt.Sprintf("coll: sendbuf %d bytes < %d", len(sendbuf), n))
	}
	if c.Rank() == root && len(recvbuf) < n {
		panic(fmt.Sprintf("coll: recvbuf %d bytes < %d at root", len(recvbuf), n))
	}
	return n
}
