package coll

import (
	"fmt"

	"abred/internal/mpi"
)

// Gather collects count elements from every rank into recvbuf at root
// (rank i's block lands at offset i*count*size-of-dt). Like MPICH 1.2 it
// is linear: the root posts receives from every other rank and waits.
func Gather(c *mpi.Comm, sendbuf, recvbuf []byte, count int, dt mpi.Datatype, root int) {
	pr := c.Proc()
	n := count * dt.Size()
	if len(sendbuf) < n {
		panic(fmt.Sprintf("coll: gather sendbuf %d bytes < %d", len(sendbuf), n))
	}
	ctx := c.Ctx(mpi.CtxGather)
	tag := SeqTag(c.NextSeq(mpi.CtxGather))
	rank, size := c.Rank(), c.Size()

	if rank != root {
		pr.Send(mpi.SendArgs{Dst: c.World(root), Ctx: ctx, Tag: tag, Data: sendbuf[:n]})
		return
	}
	if len(recvbuf) < n*size {
		panic(fmt.Sprintf("coll: gather recvbuf %d bytes < %d", len(recvbuf), n*size))
	}
	reqs := make([]*mpi.Request, 0, size-1)
	for r := 0; r < size; r++ {
		if r == rank {
			copy(recvbuf[r*n:(r+1)*n], sendbuf[:n])
			continue
		}
		reqs = append(reqs, pr.Irecv(ctx, c.World(r), tag, recvbuf[r*n:(r+1)*n]))
	}
	mpi.WaitAll(reqs...)
}
