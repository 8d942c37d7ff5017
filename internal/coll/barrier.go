package coll

import "abred/internal/mpi"

// Barrier synchronizes all ranks the way MPICH 1.2 does: combine up a
// binomial tree rooted at rank 0, then broadcast the release down the
// same tree. The release wave reaches ranks at different times — rank 0
// first, the deepest leaves ceil(log2 n) hops later — which is precisely
// the "naturally-occurring skew" the paper observes growing with system
// size even in its no-artificial-skew experiments (§VI-B). The
// microbenchmarks separate iterations with this barrier, as the paper's
// do.
func Barrier(c *mpi.Comm) {
	pr := c.Proc()
	size := c.Size()
	if size == 1 {
		return
	}
	rank := c.Rank()
	ctx := c.Ctx(mpi.CtxBarrier)
	seq := c.NextSeq(mpi.CtxBarrier)
	upTag := SeqTag(seq * 2)
	downTag := SeqTag(seq*2 + 1)
	parent := Parent(rank, 0, size)
	// A pooled token instead of a stack array: the array escapes through
	// Recv's posted queue, costing one allocation per barrier. Zeroed so
	// the wire bytes stay identical to the stack version's.
	token := pr.GetBuf(1)
	token[0] = 0

	// Combine phase: wait for the whole subtree, then report up.
	it := Kids(rank, 0, size)
	for child := it.Next(); child >= 0; child = it.Next() {
		pr.Recv(ctx, c.World(child), upTag, token)
	}
	if parent >= 0 {
		pr.Send(mpi.SendArgs{Dst: c.World(parent), Ctx: ctx, Tag: upTag, Data: token})
		pr.Recv(ctx, c.World(parent), downTag, token)
	}
	// Release phase: forward the release down the subtree.
	it = Kids(rank, 0, size)
	for child := it.Next(); child >= 0; child = it.Next() {
		pr.Send(mpi.SendArgs{Dst: c.World(child), Ctx: ctx, Tag: downTag, Data: token})
	}
	pr.PutBuf(token) // 1-byte sends are eager: copied out synchronously
}
