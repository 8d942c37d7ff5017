package coll

import (
	"fmt"

	"abred/internal/mpi"
)

// Bcast broadcasts buf from root with the standard MPICH binomial
// algorithm: receive from parent, then forward down the subtree from the
// largest mask to the smallest.
func Bcast(c *mpi.Comm, buf []byte, count int, dt mpi.Datatype, root int) {
	seq := c.NextSeq(mpi.CtxBcast)
	BcastWithSeq(c, seq, buf, count, dt, root, false)
}

// BcastWithSeq is Bcast with an explicit instance number; the
// application-bypass broadcast reuses it for fallbacks.
func BcastWithSeq(c *mpi.Comm, seq uint64, buf []byte, count int, dt mpi.Datatype, root int, collective bool) {
	pr := c.Proc()
	n := count * dt.Size()
	if len(buf) < n {
		panic(fmt.Sprintf("coll: bcast buffer %d bytes < %d", len(buf), n))
	}
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("coll: root %d out of range (size %d)", root, c.Size()))
	}
	ctx := c.Ctx(mpi.CtxBcast)
	tag := SeqTag(seq)
	rank, size := c.Rank(), c.Size()
	rel := (rank - root + size) % size

	// Receive phase: find my parent by the lowest set bit of rel.
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			parent := ((rel &^ mask) + root) % size
			pr.Recv(ctx, c.World(parent), tag, buf[:n])
			break
		}
		mask <<= 1
	}

	// Send phase: forward to children from the half-range down. At the
	// root the receive loop left mask at the first power of two ≥ size;
	// at other ranks it is the lowest set bit of rel. Either way the
	// children are rel+mask/2, rel+mask/4, ...
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < size {
			child := (rel + mask + root) % size
			pr.Send(mpi.SendArgs{
				Dst: c.World(child), Ctx: ctx, Tag: tag, Data: buf[:n],
				Collective: collective, Root: int32(c.World(root)), Seq: seq,
			})
		}
	}
}
