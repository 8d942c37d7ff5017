package coll

import (
	"fmt"

	"abred/internal/mpi"
)

// Scan computes the inclusive prefix reduction: rank i's recvbuf holds
// the combination of contributions from ranks 0..i. Linear chain, as in
// early MPICH.
func Scan(c *mpi.Comm, sendbuf, recvbuf []byte, count int, dt mpi.Datatype, op mpi.Op) {
	pr := c.Proc()
	n := count * dt.Size()
	if len(sendbuf) < n || len(recvbuf) < n {
		panic(fmt.Sprintf("coll: scan buffers too small (%d, %d < %d)", len(sendbuf), len(recvbuf), n))
	}
	ctx := c.Ctx(mpi.CtxScan)
	tag := SeqTag(c.NextSeq(mpi.CtxScan))
	rank, size := c.Rank(), c.Size()

	copy(recvbuf[:n], sendbuf[:n])
	if rank > 0 {
		tmp := make([]byte, n)
		pr.Recv(ctx, c.World(rank-1), tag, tmp)
		pr.P.Spin(pr.CM.ReduceOp(count, dt.Size()))
		mpi.Apply(op, dt, recvbuf[:n], tmp, count)
	}
	if rank < size-1 {
		pr.Send(mpi.SendArgs{Dst: c.World(rank + 1), Ctx: ctx, Tag: tag, Data: recvbuf[:n]})
	}
}
