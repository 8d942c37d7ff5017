package mpi

import "fmt"

// CtxKind separates traffic classes within one communicator. MPICH keeps
// distinct context ids for point-to-point and collective communication so
// a collective message can never match an application receive; we go one
// step further and give each collective kind its own context, which keeps
// back-to-back different collectives from interfering.
type CtxKind uint16

// Context kinds within a communicator.
const (
	CtxP2P CtxKind = iota
	CtxReduce
	CtxBcast
	CtxBarrier
	CtxGather
	CtxScan
	// CtxIReduce carries split-phase (IReduce) traffic. It is separate
	// from CtxReduce so the progress engine can tell how a packet
	// addressed to the root must be handled: blocking reductions keep
	// the paper's Fig. 4 semantics (root packets take the default
	// MPICH path), while split-phase root packets belong to the
	// descriptor machinery.
	CtxIReduce
	nCtxKinds
)

// KindOfCtx recovers the traffic class from a concrete context id
// (communicator bases are multiples of nCtxKinds).
func KindOfCtx(ctx uint16) CtxKind { return CtxKind(ctx % uint16(nCtxKinds)) }

// Comm is a communicator: a rank space plus isolated context ids. A
// sub-communicator (see Sub) spans a subset of the world's processes;
// its rank space is local (0..len(members)-1) while the wire stays in
// world coordinates — packets carry world ranks, because a packet's
// SrcRank doubles as a routable node id (rendezvous replies are
// addressed straight to it). Collective layers therefore compute tree
// relations in comm-local rank space and translate every peer through
// World at the send/receive boundary.
type Comm struct {
	pr   *Process
	base uint16
	seqs [nCtxKinds]uint64

	// members maps local rank -> world rank, ascending; nil for the
	// world communicator (the common case keeps its zero-cost identity
	// translation).
	members []int
	myRank  int // local rank of pr when members != nil
}

// World returns the world communicator for a process.
func World(pr *Process) *Comm { return &Comm{pr: pr, base: 0} }

// Sub returns a communicator over a subset of world ranks. members
// lists the participating world ranks in ascending order and must
// include the calling process; local rank i is members[i]. id
// isolates the communicator's traffic: each id gets its own context
// base, so concurrent communicators with distinct ids can never match
// each other's messages (ids share the Dup numbering space — callers
// coordinate the two, exactly as MPI's context-id allocation does).
func Sub(pr *Process, members []int, id int) *Comm {
	if len(members) == 0 {
		panic("mpi: sub-communicator with no members")
	}
	base := (1 + id) * int(nCtxKinds)
	if id < 0 || base+int(nCtxKinds) > 1<<16 {
		panic(fmt.Sprintf("mpi: communicator id %d outside the context space", id))
	}
	me := -1
	for i, w := range members {
		if i > 0 && members[i-1] >= w {
			panic(fmt.Sprintf("mpi: sub-communicator members not ascending at %d", i))
		}
		if w < 0 || w >= pr.size {
			panic(fmt.Sprintf("mpi: member %d out of world range (size %d)", w, pr.size))
		}
		if w == pr.rank {
			me = i
		}
	}
	if me < 0 {
		panic(fmt.Sprintf("mpi: process rank %d is not a member of the sub-communicator", pr.rank))
	}
	return &Comm{pr: pr, base: uint16(base), members: members, myRank: me}
}

// IsWorld reports whether the communicator spans every process. The
// NIC-resident collective paths (NIC firmware, asynchronous broadcast
// forwarding) key their tree math off world state and accept world
// communicators only.
func (c *Comm) IsWorld() bool { return c.members == nil }

// World translates a comm-local rank to its world rank — the identity
// on the world communicator. Every value that reaches the wire (send
// destinations, receive-match sources, packet Root fields) must be
// world-translated.
func (c *Comm) World(r int) int {
	if c.members == nil {
		return r
	}
	return c.members[r]
}

// Rank returns the calling process's rank in this communicator.
func (c *Comm) Rank() int {
	if c.members == nil {
		return c.pr.rank
	}
	return c.myRank
}

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int {
	if c.members == nil {
		return c.pr.size
	}
	return len(c.members)
}

// Proc exposes the underlying process to the collective layers.
func (c *Comm) Proc() *Process { return c.pr }

// Ctx returns the concrete context id for a traffic class.
func (c *Comm) Ctx(kind CtxKind) uint16 { return c.base + uint16(kind) }

// NextSeq returns a fresh collective instance number for a traffic
// class. Every rank calls collectives in the same order (an MPI
// requirement), so per-rank counters agree globally.
func (c *Comm) NextSeq(kind CtxKind) uint64 {
	s := c.seqs[kind]
	c.seqs[kind]++
	return s
}

// Send is blocking point-to-point on the communicator's p2p context.
// dst is a comm-local rank.
func (c *Comm) Send(dst int, tag int32, data []byte) {
	c.pr.Send(SendArgs{Dst: c.World(dst), Ctx: c.Ctx(CtxP2P), Tag: tag, Data: data})
}

// Recv is blocking point-to-point receive on the p2p context. src is a
// comm-local rank; a returned Status carries the world source rank.
func (c *Comm) Recv(src int, tag int32, buf []byte) Status {
	return c.pr.Recv(c.Ctx(CtxP2P), c.World(src), tag, buf)
}
