// Flow-mode lowering of the collectives. FlowColl re-expresses the
// packet engine's reduction and barrier — the blocking MPICH binomial
// chain, the application-bypass descriptor machinery, and the NIC
// signal discipline — as arithmetic over per-rank virtual clocks, with
// every message a single flow.Machine transfer instead of a packet
// exchange between simulated processes. The cost charges mirror the
// packet path constant for constant (HostRecvOvh + QueueSearch on every
// receive, PollIter per handled message, the two-copy unexpected-queue
// penalty, DescriptorOvh + drained-early-message QueueSearch on AB
// entry, SignalOvh/SignalIgnoredOvh under the same coalescing rules gm
// applies); what changes is the transfer model underneath, so flow and
// packet runs agree within the cross-validation band committed in
// bench.
package coll

import (
	"fmt"

	"abred/internal/flow"
	"abred/internal/sim"
)

// Message kinds carried in flow tags. The last two are not messages
// but WakeAt tags: a coalesced NIC signal handler and a spin's end.
const (
	fkReduce  uint8 = iota // reduction contribution to the parent
	fkBarUp                // barrier combine token
	fkBarDown              // barrier release token
	fkP2P                  // point-to-point payload (the halo step)
	fkSignal
	fkSpin
)

// op interpreter states.
const (
	opNone uint8 = iota
	opReduce
	opBarrier
	opRecv
)

// seqMask bounds the instance number folded into a flow tag; matching
// uses the masked value on both sides, so collectives stay correct for
// any iteration count with a window of 2^18 concurrent instances.
const seqMask = 1<<18 - 1

func mseq(seq uint64) uint64 { return seq & seqMask }

// ptag packs a message descriptor into a flow tag:
// [kind:3][coll:1][dst:21][src:21][seq:18].
func ptag(kind uint8, coll bool, dst, src int, seq uint64) uint64 {
	t := uint64(kind) | uint64(dst)<<4 | uint64(src)<<25 | mseq(seq)<<46
	if coll {
		t |= 8
	}
	return t
}

// fpkt is one delivered message awaiting (or undergoing) host
// processing — the flow-mode image of a gm packet in the NIC host
// queue.
type fpkt struct {
	kind uint8
	coll bool // gm Collective type: eligible for the AB hook and signals
	src  int32
	size int32
	seq  uint64
	tr   sim.Time // NIC deposit time
}

// fdesc is an application-bypass reduction descriptor: the instance and
// the children whose contributions are still pending.
type fdesc struct {
	seq     uint64
	parent  int32
	pending []int32
}

// fop is a rank's in-progress blocking operation: the interpreter state
// the packet engine keeps on a goroutine stack.
type fop struct {
	kind    uint8
	phase   uint8
	waiting bool // a posted receive is outstanding
	coll    bool // this instance's sends are collective-typed
	seq     uint64
	it      ChildIter
	parent  int32
	// The posted receive's match key.
	pkind uint8
	psrc  int32
	pseq  uint64
	psize int32
}

// frank is one rank's progress-engine state.
type frank struct {
	nicq    []fpkt // delivered, not yet host-processed (FIFO from nh)
	nh      int
	unexp   []fpkt // MPICH unexpected-message queue
	abq     []fpkt // AB unexpected queue (early contributions)
	descs   []fdesc
	op      fop
	pos     flowPos
	sigOn   bool // NIC signals armed (descriptors outstanding)
	sigPend bool // a signal was raised and its handler has not run
}

// FlowColl runs the collectives of one communicator on the flow engine,
// under the rank program Run interprets (flowprog.go): a step's call
// starts at the rank's host time, and when the blocking call returns
// (in scheduler context) the rank moves to its next step.
// Contract: every payload must fit the eager protocol — rendezvous
// transfers have a different synchronization structure and are not
// modeled at flow fidelity.
type FlowColl struct {
	M    *flow.Machine
	Size int

	// Signals counts handlers that ran with work, per rank (the flow
	// image of Engine.Metrics.SignalsHandled).
	Signals []uint64

	// InCall and Intr are Run's per-rank results: time inside reduction
	// calls, and handler time that landed inside spins.
	InCall, Intr []sim.Time

	prog  Program
	bytes int // a contribution: prog.Count doubles
	ranks []frank
	// pendFree is the descriptor pending-list pool, one free list per
	// logical process (descriptors are taken and returned on the
	// owning rank's LP).
	pendFree [][][]int32
}

// NewFlowColl builds the flow-mode collective engine for a size-rank
// communicator.
func NewFlowColl(m *flow.Machine, size int) *FlowColl {
	if size < 1 {
		panic(fmt.Sprintf("coll: flow communicator size=%d", size))
	}
	return &FlowColl{
		M: m, Size: size,
		Signals:  make([]uint64, size),
		ranks:    make([]frank, size),
		pendFree: make([][][]int32, m.LPs()),
	}
}

func (fc *FlowColl) getPend(rank int) []int32 {
	free := &fc.pendFree[fc.M.LP(rank)]
	if l := len(*free); l > 0 {
		p := (*free)[l-1]
		*free = (*free)[:l-1]
		return p
	}
	return nil
}

func (fc *FlowColl) putPend(rank int, p []int32) {
	free := &fc.pendFree[fc.M.LP(rank)]
	if cap(p) > 0 && len(*free) < 64 {
		*free = append(*free, p[:0])
	}
}

// reduce runs one reduction call for rank starting at host time at; ab
// selects the application-bypass implementation. seq is the instance
// number (every rank must pass the same one per instance).
func (fc *FlowColl) reduce(rank int, at sim.Time, ab bool, seq uint64) {
	if !ab {
		fc.reduceStart(rank, at, seq, false)
		return
	}
	if rank == fc.prog.Root {
		// Root always takes the default synchronous path (§V-B); its
		// children still send collective-typed messages.
		fc.reduceStart(rank, at, seq, true)
		return
	}
	tr := fc.tree(true)
	if tr.ChildCount(rank) == 0 {
		// Leaf: one eager collective send, then the call returns.
		m, cm := fc.M, fc.M.CMs[rank]
		parent := tr.Parent(rank)
		t := m.HostRun(rank, at, cm.HostSendOvh()+cm.HostCopy(fc.bytes))
		m.Send(t, rank, parent, fc.bytes, fc, ptag(fkReduce, true, parent, rank, seq))
		fc.opDone(rank, t)
		return
	}
	fc.abInternal(rank, at, seq, tr)
}

// tree returns the tree a reduction instance runs over: the program's
// topology-aware one for application-bypass instances (exactly as
// Engine.SetTopoTree installs it), binomial otherwise.
func (fc *FlowColl) tree(ab bool) Tree {
	if ab && fc.prog.Tree != nil {
		return fc.prog.Tree.Tree()
	}
	return Binomial(fc.prog.Root, fc.Size)
}

// barrier enters the MPICH tree barrier (combine up to rank 0, release
// down) for rank at host time at.
func (fc *FlowColl) barrier(rank int, at sim.Time, seq uint64) {
	if fc.Size == 1 {
		fc.opDone(rank, at)
		return
	}
	fr := &fc.ranks[rank]
	fr.op = fop{kind: opBarrier, seq: mseq(seq), parent: int32(Parent(rank, 0, fc.Size)), it: Kids(rank, 0, fc.Size)}
	fc.M.HostRun(rank, at, 0)
	fc.barrierLoop(rank, fr)
}

// reduceStart runs the blocking MPICH reduction chain (ReduceOn):
// all of NAB mode, plus the AB root. coll marks the instance's sends
// collective-typed.
func (fc *FlowColl) reduceStart(rank int, at sim.Time, seq uint64, coll bool) {
	m, cm := fc.M, fc.M.CMs[rank]
	fr := &fc.ranks[rank]
	tr := fc.tree(coll)
	parent := tr.Parent(rank)
	fr.op = fop{kind: opReduce, seq: mseq(seq), coll: coll, parent: int32(parent), it: tr.Kids(rank)}
	if tr.ChildCount(rank) == 0 {
		if parent < 0 { // single-process communicator
			fc.opDone(rank, at)
			return
		}
		t := m.HostRun(rank, at, cm.HostSendOvh()+cm.HostCopy(fc.bytes))
		m.Send(t, rank, parent, fc.bytes, fc, ptag(fkReduce, coll, parent, rank, seq))
		fc.opDone(rank, t)
		return
	}
	// Accumulator init: the charged copy out of sendbuf.
	m.HostRun(rank, at, cm.HostCopy(fc.bytes))
	fc.reduceLoop(rank, fr)
}

// reduceLoop receives from each child in turn, charging ReduceOp per
// contribution, then forwards the combined result to the parent.
func (fc *FlowColl) reduceLoop(rank int, fr *frank) {
	m, cm := fc.M, fc.M.CMs[rank]
	op := &fr.op
	for {
		c := op.it.Next()
		if c < 0 {
			if op.parent >= 0 {
				t := m.HostRun(rank, m.Busy[rank], cm.HostSendOvh()+cm.HostCopy(fc.bytes))
				m.Send(t, rank, int(op.parent), fc.bytes, fc, ptag(fkReduce, op.coll, int(op.parent), rank, op.seq))
			}
			fc.opDone(rank, m.Busy[rank])
			return
		}
		if !fc.recvStart(rank, fr, fkReduce, int32(c), op.seq, int32(fc.bytes)) {
			return // blocked; a future delivery resumes via opAdvance
		}
		m.HostRun(rank, m.Busy[rank], cm.ReduceOp(fc.prog.Count, 8))
	}
}

// barrierLoop advances the barrier state machine: phase 0 receives the
// subtree's combine tokens, phase 1 reports up and waits for the
// release, phase 2 forwards the release down.
func (fc *FlowColl) barrierLoop(rank int, fr *frank) {
	m, cm := fc.M, fc.M.CMs[rank]
	op := &fr.op
	if op.phase == 0 {
		for {
			c := op.it.Next()
			if c < 0 {
				op.phase = 1
				break
			}
			if !fc.recvStart(rank, fr, fkBarUp, int32(c), op.seq, 1) {
				return
			}
		}
	}
	if op.phase == 1 {
		op.phase = 2
		if op.parent >= 0 {
			t := m.HostRun(rank, m.Busy[rank], cm.HostSendOvh()+cm.HostCopy(1))
			m.Send(t, rank, int(op.parent), 1, fc, ptag(fkBarUp, false, int(op.parent), rank, op.seq))
			if !fc.recvStart(rank, fr, fkBarDown, op.parent, op.seq, 1) {
				return
			}
		}
	}
	it := Kids(rank, 0, fc.Size)
	for c := it.Next(); c >= 0; c = it.Next() {
		t := m.HostRun(rank, m.Busy[rank], cm.HostSendOvh()+cm.HostCopy(1))
		m.Send(t, rank, c, 1, fc, ptag(fkBarDown, false, c, rank, op.seq))
	}
	fc.opDone(rank, m.Busy[rank])
}

// abInternal is the internal-rank application-bypass call (Fig. 3 left
// column): disable signals, charge the accumulator copy and descriptor
// push, drain early contributions from the AB unexpected queue, run one
// progress pass over whatever the NIC already delivered, re-arm signals
// iff the instance is still outstanding, and return.
func (fc *FlowColl) abInternal(rank int, at sim.Time, seq uint64, tr Tree) {
	m, cm := fc.M, fc.M.CMs[rank]
	fr := &fc.ranks[rank]
	fr.sigOn = false
	t := m.HostRun(rank, at, cm.HostCopy(fc.bytes))
	t = m.HostRun(rank, t, cm.DescriptorOvh())

	pend := fc.getPend(rank)
	it := tr.Kids(rank)
	for c := it.Next(); c >= 0; c = it.Next() {
		pend = append(pend, int32(c))
	}
	fr.descs = append(fr.descs, fdesc{seq: mseq(seq), parent: int32(tr.Parent(rank)), pending: pend})
	di := len(fr.descs) - 1

	// drainUBQ: combine queued early messages straight from the queue.
	for i := 0; i < len(fr.abq) && len(fr.descs[di].pending) > 0; {
		pk := fr.abq[i]
		d := &fr.descs[di]
		if pk.seq != d.seq || !pendingHas(d, pk.src) {
			i++
			continue
		}
		t = m.HostRun(rank, t, cm.QueueSearch(i+1))
		fr.abq = append(fr.abq[:i], fr.abq[i+1:]...)
		t = m.HostRun(rank, t, cm.ReduceOp(fc.prog.Count, 8))
		removePending(d, pk.src)
	}
	if len(fr.descs[di].pending) == 0 {
		fc.completeDesc(rank, fr, di, false)
	} else {
		// syncPhase's progress pass: handle every delivered message.
		for fr.nh < len(fr.nicq) {
			pkt := fr.nicq[fr.nh]
			fr.nh++
			fc.processPkt(rank, fr, pkt, false)
		}
		fr.resetq()
	}
	fr.sigOn = len(fr.descs) > 0
	fc.opDone(rank, m.Busy[rank])
}

// recvStart begins a blocking receive at rank's current host time:
// charge the receive overhead and unexpected-queue search, match a
// buffered message (second copy) or post and drain the NIC queue until
// matched. Returns true when the receive completed synchronously; false
// when the rank is parked polling and a future delivery will resume it.
func (fc *FlowColl) recvStart(rank int, fr *frank, kind uint8, src int32, seq uint64, size int32) bool {
	m, cm := fc.M, fc.M.CMs[rank]
	t := m.HostRun(rank, m.Busy[rank], cm.HostRecvOvh()+cm.QueueSearch(len(fr.unexp)))
	for i, pk := range fr.unexp {
		if pk.kind == kind && pk.src == src && pk.seq == seq {
			fr.unexp = append(fr.unexp[:i], fr.unexp[i+1:]...)
			m.HostRun(rank, t, cm.HostCopy(int(size)))
			return true
		}
	}
	op := &fr.op
	op.pkind, op.psrc, op.pseq, op.psize = kind, src, seq, size
	op.waiting = true
	for op.waiting && fr.nh < len(fr.nicq) {
		pkt := fr.nicq[fr.nh]
		fr.nh++
		fc.processPkt(rank, fr, pkt, false)
	}
	fr.resetq()
	return !op.waiting
}

// processPkt is handlePacket: return the receive token, charge the
// dequeue cost, consume a pending signal the progress engine beat the
// handler to, run the AB hook for collective messages, then default
// matching. Returns true when the message completed the posted receive
// (the caller resumes the op). intr routes charges to the interrupt
// ledger (signal-handler context).
func (fc *FlowColl) processPkt(rank int, fr *frank, pkt fpkt, intr bool) bool {
	m, cm := fc.M, fc.M.CMs[rank]
	ts := m.Busy[rank]
	if pkt.tr > ts {
		ts = pkt.tr
	}
	m.ReleaseRecv(rank, ts)
	cost := cm.PollIter()
	if pkt.coll && fr.sigPend {
		// The signal raised for this message loses the race with the
		// polling host; the handler will find nothing.
		cost += cm.SignalIgnoredOvh()
		fr.sigPend = false
	}
	if pkt.coll {
		// AB hook: search the descriptor queue for the instance.
		cost += cm.QueueSearch(len(fr.descs))
		if di := fc.findDesc(fr, pkt.seq, pkt.src); di >= 0 {
			cost += cm.ReduceOp(fc.prog.Count, 8)
			fc.hostCharge(rank, ts, cost, intr)
			d := &fr.descs[di]
			removePending(d, pkt.src)
			if len(d.pending) == 0 {
				fc.completeDesc(rank, fr, di, intr)
			}
			return false
		}
		if rank != fc.prog.Root {
			// No descriptor yet: copy into the AB unexpected queue.
			cost += cm.HostCopy(int(pkt.size))
			fc.hostCharge(rank, ts, cost, intr)
			fr.abq = append(fr.abq, pkt)
			return false
		}
		// Fig. 4 root check: fall through to default matching.
	}
	posted := 0
	if fr.op.waiting {
		posted = 1
	}
	cost += cm.QueueSearch(posted)
	cost += cm.HostCopy(int(pkt.size))
	fc.hostCharge(rank, ts, cost, intr)
	if fr.op.waiting && pkt.kind == fr.op.pkind && pkt.src == fr.op.psrc && pkt.seq == fr.op.pseq {
		fr.op.waiting = false
		return true
	}
	fr.unexp = append(fr.unexp, pkt)
	return false
}

// completeDesc finishes descriptor di: the eager upward send of the
// combined result and the Fig. 3 signal re-arm.
func (fc *FlowColl) completeDesc(rank int, fr *frank, di int, intr bool) {
	m, cm := fc.M, fc.M.CMs[rank]
	d := fr.descs[di]
	t := fc.hostCharge(rank, m.Busy[rank], cm.HostSendOvh()+cm.HostCopy(fc.bytes), intr)
	m.Send(t, rank, int(d.parent), fc.bytes, fc, ptag(fkReduce, true, int(d.parent), rank, d.seq))
	fc.putPend(rank, d.pending)
	fr.descs = append(fr.descs[:di], fr.descs[di+1:]...)
	fr.sigOn = len(fr.descs) > 0
}

// hostCharge advances rank's host clock, routing to the interrupt
// ledger in handler context.
func (fc *FlowColl) hostCharge(rank int, at, cost sim.Time, intr bool) sim.Time {
	if intr {
		return fc.M.HostIntr(rank, at, cost)
	}
	return fc.M.HostRun(rank, at, cost)
}

func (fc *FlowColl) findDesc(fr *frank, seq uint64, src int32) int {
	for i := range fr.descs {
		if fr.descs[i].seq == seq && pendingHas(&fr.descs[i], src) {
			return i
		}
	}
	return -1
}

func pendingHas(d *fdesc, src int32) bool {
	for _, c := range d.pending {
		if c == src {
			return true
		}
	}
	return false
}

func removePending(d *fdesc, src int32) {
	for i, c := range d.pending {
		if c == src {
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("coll: child %d not pending on flow descriptor seq=%d", src, d.seq))
}

// opDone ends rank's blocking call at host time t.
func (fc *FlowColl) opDone(rank int, t sim.Time) {
	fr := &fc.ranks[rank]
	fr.op.kind, fr.op.waiting = opNone, false
	fc.leave(rank, t)
}

// opAdvance resumes rank's op after a posted receive matched.
func (fc *FlowColl) opAdvance(rank int, fr *frank) {
	m, cm := fc.M, fc.M.CMs[rank]
	switch fr.op.kind {
	case opReduce:
		m.HostRun(rank, m.Busy[rank], cm.ReduceOp(fc.prog.Count, 8))
		fc.reduceLoop(rank, fr)
	case opBarrier:
		fc.barrierLoop(rank, fr)
	case opRecv:
		fc.opDone(rank, m.Busy[rank])
	default:
		panic("coll: flow delivery resumed an idle rank")
	}
}

// FlowEvent receives Machine callbacks: message deliveries, signal-
// handler wakeups and spin ends.
func (fc *FlowColl) FlowEvent(tag uint64, at sim.Time) {
	kind := uint8(tag & 7)
	dst := int(tag >> 4 & 0x1FFFFF)
	switch kind {
	case fkSignal:
		fc.onSignal(dst, at)
		return
	case fkSpin:
		fc.spinEnd(dst, at)
		return
	}
	pkt := fpkt{
		kind: kind,
		coll: tag&8 != 0,
		src:  int32(tag >> 25 & 0x1FFFFF),
		seq:  tag >> 46,
		tr:   at,
	}
	switch kind {
	case fkReduce:
		pkt.size = int32(fc.bytes)
	case fkBarUp, fkBarDown:
		pkt.size = 1
	case fkP2P:
		pkt.size = HaloBytes
	}
	fc.deliver(dst, pkt)
}

// deliver routes one NIC deposit: raise a (coalesced) signal for
// collective messages when armed, process immediately when the rank is
// parked polling in a blocking call, queue otherwise.
func (fc *FlowColl) deliver(dst int, pkt fpkt) {
	fr := &fc.ranks[dst]
	if pkt.coll && fr.sigOn && !fr.sigPend {
		fr.sigPend = true
		fc.M.WakeAt(dst, pkt.tr+fc.M.CMs[dst].SignalDelay(), fc, ptag(fkSignal, false, dst, 0, 0))
	}
	if fr.op.waiting {
		if fc.processPkt(dst, fr, pkt, false) {
			fc.opAdvance(dst, fr)
		}
		return
	}
	fr.nicq = append(fr.nicq, pkt)
}

// onSignal is the NIC signal handler at its delayed start time: stale
// if in-call progress consumed the pending raise; SignalIgnoredOvh if
// the queue drained in the meantime; otherwise SignalOvh plus a full
// progress pass, all on the interrupt ledger.
func (fc *FlowColl) onSignal(rank int, th sim.Time) {
	fr := &fc.ranks[rank]
	if !fr.sigPend {
		return
	}
	fr.sigPend = false
	m, cm := fc.M, fc.M.CMs[rank]
	if fr.nh >= len(fr.nicq) {
		m.HostIntr(rank, th, cm.SignalIgnoredOvh())
		return
	}
	m.HostIntr(rank, th, cm.SignalOvh())
	fc.Signals[rank]++
	for fr.nh < len(fr.nicq) {
		pkt := fr.nicq[fr.nh]
		fr.nh++
		fc.processPkt(rank, fr, pkt, true)
	}
	fr.resetq()
}

// Quiescent returns nil when a finished run left nothing queued, posted
// or pending on any rank — the flow image of gm's assertHome — and
// otherwise says what the first such rank holds.
func (fc *FlowColl) Quiescent() error {
	for r := range fc.ranks {
		fr := &fc.ranks[r]
		if n := len(fr.nicq) - fr.nh; n != 0 {
			return fmt.Errorf("rank %d: %d messages left in the NIC queue", r, n)
		}
		if len(fr.unexp) != 0 || len(fr.abq) != 0 || len(fr.descs) != 0 {
			return fmt.Errorf("rank %d: unexpected=%d ab-unexpected=%d descriptors=%d at quiescence",
				r, len(fr.unexp), len(fr.abq), len(fr.descs))
		}
		if fr.sigPend || fr.op.kind != opNone {
			return fmt.Errorf("rank %d: signal pending=%v, op kind=%d at quiescence", r, fr.sigPend, fr.op.kind)
		}
	}
	return nil
}

func (fr *frank) resetq() {
	if fr.nh >= len(fr.nicq) {
		fr.nicq, fr.nh = fr.nicq[:0], 0
	}
}
