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

// Scatter distributes count elements per rank from sendbuf at root
// (rank i receives the block at offset i*count*size-of-dt) into each
// rank's recvbuf. Linear, like MPICH 1.2.
func Scatter(c *mpi.Comm, sendbuf, recvbuf []byte, count int, dt mpi.Datatype, root int) {
	pr := c.Proc()
	n := count * dt.Size()
	if len(recvbuf) < n {
		panic(fmt.Sprintf("coll: scatter recvbuf %d bytes < %d", len(recvbuf), n))
	}
	ctx := c.Ctx(mpi.CtxScatter)
	tag := SeqTag(c.NextSeq(mpi.CtxScatter))
	rank, size := c.Rank(), c.Size()

	if rank != root {
		pr.Recv(ctx, c.World(root), tag, recvbuf[:n])
		return
	}
	if len(sendbuf) < n*size {
		panic(fmt.Sprintf("coll: scatter sendbuf %d bytes < %d", len(sendbuf), n*size))
	}
	var reqs []*mpi.Request
	for r := 0; r < size; r++ {
		if r == rank {
			copy(recvbuf[:n], sendbuf[r*n:(r+1)*n])
			continue
		}
		reqs = append(reqs, pr.Isend(mpi.SendArgs{Dst: c.World(r), Ctx: ctx, Tag: tag, Data: sendbuf[r*n : (r+1)*n]}))
	}
	mpi.WaitAll(reqs...)
}

// Allgather gathers every rank's block to rank 0 and broadcasts the
// concatenation, the composition early MPICH used.
func Allgather(c *mpi.Comm, sendbuf, recvbuf []byte, count int, dt mpi.Datatype) {
	n := count * dt.Size()
	size := c.Size()
	if len(recvbuf) < n*size {
		panic(fmt.Sprintf("coll: allgather recvbuf %d bytes < %d", len(recvbuf), n*size))
	}
	Gather(c, sendbuf, recvbuf, count, dt, 0)
	Bcast(c, recvbuf[:n*size], count*size, dt, 0)
}
