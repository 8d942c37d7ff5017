package coll

import (
	"fmt"

	"abred/internal/mpi"
)

// Alltoall exchanges count elements between every pair of ranks: rank
// i's block j of sendbuf lands in rank j's block i of recvbuf. Linear
// (post all receives, send to all peers), as in early MPICH.
func Alltoall(c *mpi.Comm, sendbuf, recvbuf []byte, count int, dt mpi.Datatype) {
	pr := c.Proc()
	n := count * dt.Size()
	rank, size := c.Rank(), c.Size()
	if len(sendbuf) < n*size || len(recvbuf) < n*size {
		panic(fmt.Sprintf("coll: alltoall buffers too small (%d, %d < %d)", len(sendbuf), len(recvbuf), n*size))
	}
	ctx := c.Ctx(mpi.CtxAlltoall)
	tag := SeqTag(c.NextSeq(mpi.CtxAlltoall))

	var reqs []*mpi.Request
	for peer := 0; peer < size; peer++ {
		if peer == rank {
			copy(recvbuf[rank*n:(rank+1)*n], sendbuf[rank*n:(rank+1)*n])
			continue
		}
		reqs = append(reqs, pr.Irecv(ctx, c.World(peer), tag, recvbuf[peer*n:(peer+1)*n]))
	}
	for peer := 0; peer < size; peer++ {
		if peer == rank {
			continue
		}
		reqs = append(reqs, pr.Isend(mpi.SendArgs{Dst: c.World(peer), Ctx: ctx, Tag: tag, Data: sendbuf[peer*n : (peer+1)*n]}))
	}
	mpi.WaitAll(reqs...)
}
