package core

import (
	"fmt"

	"abred/internal/coll"
	"abred/internal/gm"
	"abred/internal/mpi"
)

// NIC-based reduction — the paper's §VII future-work direction (refs
// [9–11]): "part or all of the operation may be performed on the NIC
// processor, as opposed to being performed on the host. This frees the
// host processor for use in other computation, naturally bypassing the
// application."
//
// Every node deposits its contribution into its own NIC; the LANai
// control program combines contributions from the node's subtree in NIC
// memory and forwards the partial result up the binomial tree entirely
// on the NIC plane. Non-root hosts return as soon as the deposit is
// posted; only the root blocks, waiting for the final result to be
// DMA'd up. The trade-off the referenced work debates is visible in the
// cost model: the LANai has no FPU, so NIC-side arithmetic is slow.

// nicInstance is the control program's per-instance state.
type nicInstance struct {
	acc  []byte
	got  int
	need int
}

// nicKey identifies a reduction instance on the NIC.
type nicKey struct {
	ctx uint16
	seq uint64
}

// nicTable lives on the NIC (one per engine; the engine owns the node's
// firmware).
type nicTable map[nicKey]*nicInstance

// firmware is the reduction control program the engine loads onto the
// node's NIC. Reset installs it, so contributions from eager children
// are combined even before the local host reaches its call.
func (e *Engine) firmware(fw *gm.FwOps, pkt *gm.Packet) bool {
	if pkt.Type != gm.NICCollective {
		return false
	}
	e.nicProcess(fw, pkt)
	return true
}

// nicProcess handles one contribution in control-program context. LANai
// time is accrued through fw.Charge; the control program performs the
// posted actions once that time has elapsed, so the virtual-time cost is
// the same as the old blocking Sleep-then-act sequence.
func (e *Engine) nicProcess(fw *gm.FwOps, pkt *gm.Packet) {
	pr := e.pr
	rank, size := pr.Rank(), pr.Size()
	root := int(pkt.Root)
	key := nicKey{ctx: pkt.Ctx, seq: pkt.Seq}
	dt := mpi.Datatype(pkt.AuxDT)
	op := mpi.Op(pkt.AuxOp)
	count := len(pkt.Data) / dt.Size()

	inst := e.nicTab[key]
	if inst == nil {
		inst = &nicInstance{need: coll.ChildCount(rank, root, size) + 1}
		e.nicTab[key] = inst
	}
	if inst.acc == nil {
		inst.acc = append([]byte(nil), pkt.Data...)
	} else {
		fw.Charge(pr.CM.NICReduceOp(count, dt.Size()))
		mpi.Apply(op, dt, inst.acc, pkt.Data, count)
	}
	inst.got++
	if inst.got < inst.need {
		return
	}
	delete(e.nicTab, key)
	e.Metrics.NICCombines += uint64(inst.need - 1)

	if rank == root {
		// DMA the final result up to the host, where it matches the
		// root's posted receive.
		result := &gm.Packet{
			Type:    gm.NICCollective,
			DstNode: rank,
			Ctx:     pkt.Ctx,
			Tag:     pkt.Tag,
			SrcRank: int32(rank),
			Root:    pkt.Root,
			Seq:     pkt.Seq,
			Data:    inst.acc,
		}
		fw.Charge(pr.CM.NICPkt(len(inst.acc))) // PCI DMA to host memory
		fw.DeliverToHost(result)
		return
	}

	parent := coll.Parent(rank, root, size)
	up := &gm.Packet{
		Type:    gm.NICCollective,
		DstNode: parent,
		Ctx:     pkt.Ctx,
		Tag:     pkt.Tag,
		SrcRank: int32(rank),
		Root:    pkt.Root,
		Seq:     pkt.Seq,
		AuxOp:   pkt.AuxOp,
		AuxDT:   pkt.AuxDT,
		Data:    inst.acc,
	}
	fw.Charge(pr.CM.NICPkt(len(up.Data)))
	fw.Forward(up)
}

// NICReduce performs the reduction on the NIC plane. Non-root ranks
// return as soon as their contribution is handed to their NIC — an even
// stronger form of application bypass. The root blocks for the final
// result in recvbuf.
func (e *Engine) NICReduce(c *mpi.Comm, sendbuf, recvbuf []byte, count int, dt mpi.Datatype, op mpi.Op, root int) {
	pr := e.pr
	if c.Proc() != pr {
		panic("core: communicator belongs to a different process")
	}
	if !c.IsWorld() {
		// The control program derives its subtree from pr.Rank()/pr.Size()
		// — world state the NIC can see. A sub-communicator would need its
		// membership downloaded to the firmware; not modeled.
		panic("core: NIC-based reduction requires the world communicator")
	}
	n := count * dt.Size()
	if len(sendbuf) < n {
		panic(fmt.Sprintf("core: sendbuf %d bytes < %d", len(sendbuf), n))
	}
	seq := c.NextSeq(mpi.CtxReduce)
	ctx := c.Ctx(mpi.CtxReduce)
	tag := coll.SeqTag(seq)
	rank := c.Rank()
	if rank == root && len(recvbuf) < n {
		panic(fmt.Sprintf("core: recvbuf %d bytes < %d at root", len(recvbuf), n))
	}
	if n > pr.CM.EagerThreshold() {
		// NIC memory is small; large reductions stay on the host.
		e.Metrics.SizeFallbacks++
		coll.ReduceOn(c, coll.Binomial(root, c.Size()), mpi.CtxReduce, seq, sendbuf, recvbuf, count, dt, op, false)
		return
	}
	e.Metrics.NICReductions++

	// Deposit the local contribution into the NIC (host copy across
	// PCI is charged by the control program; library overhead here).
	pr.P.Spin(pr.CM.HostSendOvh())
	deposit := &gm.Packet{
		Type:    gm.NICCollective,
		DstNode: rank,
		Ctx:     ctx,
		Tag:     tag,
		SrcRank: int32(rank),
		Root:    int32(root),
		Seq:     seq,
		AuxOp:   uint8(op),
		AuxDT:   uint8(dt),
		Data:    append([]byte(nil), sendbuf[:n]...),
	}
	pr.NIC().Deliver(deposit)

	if rank != root {
		return // fully bypassed
	}
	pr.Recv(ctx, root, tag, recvbuf[:n])
}
