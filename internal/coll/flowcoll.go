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

// Message kinds carried in flow tags.
const (
	fkReduce  uint8 = iota // reduction contribution to the parent
	fkBarUp                // barrier combine token
	fkBarDown              // barrier release token
	fkP2P                  // point-to-point payload (the halo step)
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

// mseq masks instance number n for a tag.
func mseq(n int32) uint32 { return uint32(n) & seqMask }

// ptag packs a message descriptor into a flow tag:
// [kind:3][coll:1][dst:21][src:21][seq:18].
func ptag(kind uint8, coll bool, dst, src int, seq uint32) uint64 {
	t := uint64(kind) | uint64(dst)<<4 | uint64(src)<<25 | uint64(seq)<<46
	if coll {
		t |= 8
	}
	return t
}

// fpkt is one delivered message awaiting (or undergoing) host
// processing — the flow-mode image of a gm packet in the NIC host
// queue. Its size follows from its kind (FlowColl.size).
type fpkt struct {
	tr   sim.Time // NIC deposit time
	src  int32
	seq  uint32 // masked instance number (mseq)
	kind uint8
	coll bool // gm Collective type: eligible for the AB hook and signals
}

// fdesc is an application-bypass reduction descriptor: the instance and
// the children whose contributions are still pending, a list in its
// LP's kids slab.
type fdesc struct {
	seq     uint32
	parent  int32
	pending int32
}

// fop is a rank's in-progress blocking operation: the interpreter state
// the packet engine keeps on a goroutine stack.
type fop struct {
	kind    uint8
	phase   uint8
	waiting bool  // a posted receive is outstanding
	coll    bool  // this instance's sends are collective-typed
	pkind   uint8 // the posted receive's kind
	seq     uint32
	parent  int32
	psrc    int32 // the posted receive's source; it matches seq too
	kids    int32 // children taken so far from the op's tree walk (KidsFrom)
}

// frank is one rank's progress-engine state and host clocks. Its
// queues are lists threaded through its LP's slabs, and it is the
// target of its own wakes: a spin's end (frank.RunEvent) and a NIC
// signal handler (sigWake).
type frank struct {
	lp      *flowLP
	rank    int32
	sigOn   bool // NIC signals armed (descriptors outstanding)
	sigPend bool // a signal was raised and its handler has not run
	nicq    fifo // delivered, not yet host-processed
	unexp   fifo // MPICH unexpected-message queue
	abq     fifo // AB unexpected queue (early contributions)
	descs   fifo
	nunexp  int32
	ndesc   int32
	op      fop
	pos     flowPos
	busy    sim.Time // the host is busy until then (hostRun)
	sintr   sim.Time // handler time charged since the spin in progress began (hostIntr)
}

// hostRun charges cost on the rank's host timeline starting no earlier
// than at, returning the completion time.
func (fr *frank) hostRun(at, cost sim.Time) sim.Time {
	t := fr.busy
	if at > t {
		t = at
	}
	t += cost
	fr.busy = t
	return t
}

// hostIntr is hostRun for asynchronous handler work that interrupts the
// application: the cost also accrues to sintr, which the spin in
// progress consumes (spinEnd).
func (fr *frank) hostIntr(at, cost sim.Time) sim.Time {
	fr.sintr += cost
	return fr.hostRun(at, cost)
}

// hostCharge advances the rank's host clock, routing to hostIntr in
// handler context.
func (fr *frank) hostCharge(at, cost sim.Time, intr bool) sim.Time {
	if intr {
		return fr.hostIntr(at, cost)
	}
	return fr.hostRun(at, cost)
}

// RunEvent is the rank's spin-end wake.
func (fr *frank) RunEvent() { fr.lp.fc.spinEnd(int(fr.rank), fr.lp.k.Now()) }

// sigWake is a rank's record as the target of its NIC signal wakes.
// A signal that a polling pass consumes leaves its wake queued, and
// that wake serves whatever raise is pending when it fires, so a wake
// is a plain event on the record and never a re-armed sim.Timer: a
// later raise must not cancel or move the earlier wake.
type sigWake frank

// RunEvent runs the rank's signal handler.
func (w *sigWake) RunEvent() {
	fr := (*frank)(w)
	fr.lp.fc.onSignal(int(fr.rank), fr.lp.k.Now())
}

// flowLP is one LP's share of a FlowColl: the kernel its ranks' events
// run on and the slabs their queues are threaded through. Ranks of
// different LPs run concurrently, so each LP has its own slabs, as
// each has its own flow.Machine pools.
type flowLP struct {
	fc    *FlowColl
	k     *sim.Kernel
	pkts  slab[fpkt]
	descs slab[fdesc]
	kids  slab[int32] // descriptors' pending children
}

// reset empties the LP's slabs, keeping their capacity.
func (lp *flowLP) reset() {
	lp.pkts.reset()
	lp.descs.reset()
	lp.kids.reset()
}

// wake schedules r, one of a rank's wake targets, at virtual time t.
func (lp *flowLP) wake(t sim.Time, r sim.Runner) {
	if t < lp.k.Now() {
		panic("coll: flow wake in the virtual past")
	}
	lp.k.ScheduleRunnerAt(t, r)
}

// slab is an int32-linked record store. Index 0 is the nil link;
// next[i] is the record after i on its list, or on the free list.
type slab[T any] struct {
	v    []T
	next []int32
	free int32
}

func (s *slab[T]) reset() {
	var zero T
	s.v, s.next, s.free = append(s.v[:0], zero), append(s.next[:0], 0), 0
}

// get stores x in a free record and returns its index, unlinked.
func (s *slab[T]) get(x T) int32 {
	i := s.free
	if i == 0 {
		i = int32(len(s.v))
		s.v = append(s.v, x)
		s.next = append(s.next, 0)
		return i
	}
	s.free = s.next[i]
	s.v[i], s.next[i] = x, 0
	return i
}

// fifo is a list of slab records in arrival order: its head and tail
// indexes, 0 when empty.
type fifo struct{ h, t int32 }

// push appends record i to q.
func (s *slab[T]) push(q *fifo, i int32) {
	if q.t == 0 {
		q.h = i
	} else {
		s.next[q.t] = i
	}
	q.t = i
}

// unlink removes record i, which follows prev (0 at the head), from q
// and frees it.
func (s *slab[T]) unlink(q *fifo, prev, i int32) {
	nx := s.next[i]
	if prev == 0 {
		q.h = nx
	} else {
		s.next[prev] = nx
	}
	if q.t == i {
		q.t = prev
	}
	s.next[i], s.free = s.free, i
}

// pop removes q's head and returns its value.
func (s *slab[T]) pop(q *fifo) T {
	x := s.v[q.h]
	s.unlink(q, 0, q.h)
	return x
}

// count returns q's length.
func (s *slab[T]) count(q fifo) int {
	n := 0
	for i := q.h; i != 0; i = s.next[i] {
		n++
	}
	return n
}

// FlowColl runs the collectives of one communicator on the flow engine,
// under the rank program Run interprets (flowprog.go): a step's call
// starts at the rank's host time, and when the blocking call returns
// (in scheduler context) the rank moves to its next step. It is built
// once per machine and reused by every Run, as a packet node keeps its
// mpi.Process and core.Engine; each Run writes the caller's Outcome.
// Contract: every payload must fit the eager protocol — rendezvous
// transfers have a different synchronization structure and are not
// modeled at flow fidelity.
type FlowColl struct {
	M    *flow.Machine
	Size int

	prog  Program
	bytes int      // a contribution: prog.Count doubles
	out   *Outcome // the Run in progress writes here
	ranks []frank
	lps   []flowLP
}

// NewFlowColl builds the flow-mode collective engine for a size-rank
// communicator.
func NewFlowColl(m *flow.Machine, size int) *FlowColl {
	if size < 1 {
		panic(fmt.Sprintf("coll: flow communicator size=%d", size))
	}
	fc := &FlowColl{M: m, Size: size, ranks: make([]frank, size)}
	ks := m.Kernels()
	fc.lps = make([]flowLP, len(ks))
	for i, k := range ks {
		fc.lps[i] = flowLP{fc: fc, k: k}
		fc.lps[i].reset()
	}
	for r := range fc.ranks {
		fc.ranks[r] = frank{lp: &fc.lps[m.LPOf(r)], rank: int32(r)}
	}
	return fc
}

// size returns the payload of a message of the given kind.
func (fc *FlowColl) size(kind uint8) int {
	switch kind {
	case fkReduce:
		return fc.bytes
	case fkP2P:
		return HaloBytes
	}
	return 1 // barrier tokens
}

// reduce runs one reduction call for rank starting at host time at; ab
// selects the application-bypass implementation. seq is the instance
// number (every rank must pass the same one per instance).
func (fc *FlowColl) reduce(rank int, at sim.Time, ab bool, seq uint32) {
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
		t := fc.ranks[rank].hostRun(at, cm.HostSendOvh()+cm.HostCopy(fc.bytes))
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
func (fc *FlowColl) barrier(rank int, at sim.Time, seq uint32) {
	if fc.Size == 1 {
		fc.opDone(rank, at)
		return
	}
	fr := &fc.ranks[rank]
	fr.op = fop{kind: opBarrier, seq: seq, parent: int32(Parent(rank, 0, fc.Size))}
	fr.hostRun(at, 0)
	fc.barrierLoop(rank, fr)
}

// reduceStart runs the blocking MPICH reduction chain (ReduceOn):
// all of NAB mode, plus the AB root. coll marks the instance's sends
// collective-typed.
func (fc *FlowColl) reduceStart(rank int, at sim.Time, seq uint32, coll bool) {
	m, cm := fc.M, fc.M.CMs[rank]
	fr := &fc.ranks[rank]
	tr := fc.tree(coll)
	parent := tr.Parent(rank)
	fr.op = fop{kind: opReduce, seq: seq, coll: coll, parent: int32(parent)}
	if tr.ChildCount(rank) == 0 {
		if parent < 0 { // single-process communicator
			fc.opDone(rank, at)
			return
		}
		t := fr.hostRun(at, cm.HostSendOvh()+cm.HostCopy(fc.bytes))
		m.Send(t, rank, parent, fc.bytes, fc, ptag(fkReduce, coll, parent, rank, seq))
		fc.opDone(rank, t)
		return
	}
	// Accumulator init: the charged copy out of sendbuf.
	fr.hostRun(at, cm.HostCopy(fc.bytes))
	fc.reduceLoop(rank, fr)
}

// reduceLoop receives from each child in turn, charging ReduceOp per
// contribution, then forwards the combined result to the parent.
func (fc *FlowColl) reduceLoop(rank int, fr *frank) {
	m, cm := fc.M, fc.M.CMs[rank]
	op := &fr.op
	it := fc.tree(op.coll).KidsFrom(rank, int(op.kids))
	for {
		c := it.Next()
		if c < 0 {
			if op.parent >= 0 {
				t := fr.hostRun(fr.busy, cm.HostSendOvh()+cm.HostCopy(fc.bytes))
				m.Send(t, rank, int(op.parent), fc.bytes, fc, ptag(fkReduce, op.coll, int(op.parent), rank, op.seq))
			}
			fc.opDone(rank, fr.busy)
			return
		}
		op.kids++
		if !fc.recvStart(rank, fr, fkReduce, int32(c)) {
			return // blocked; a future delivery resumes via opAdvance
		}
		fr.hostRun(fr.busy, cm.ReduceOp(fc.prog.Count, 8))
	}
}

// barrierLoop advances the barrier state machine: phase 0 receives the
// subtree's combine tokens, phase 1 reports up and waits for the
// release, phase 2 forwards the release down.
func (fc *FlowColl) barrierLoop(rank int, fr *frank) {
	m, cm := fc.M, fc.M.CMs[rank]
	op := &fr.op
	if op.phase == 0 {
		it := Binomial(0, fc.Size).KidsFrom(rank, int(op.kids))
		for {
			c := it.Next()
			if c < 0 {
				op.phase = 1
				break
			}
			op.kids++
			if !fc.recvStart(rank, fr, fkBarUp, int32(c)) {
				return
			}
		}
	}
	if op.phase == 1 {
		op.phase = 2
		if op.parent >= 0 {
			t := fr.hostRun(fr.busy, cm.HostSendOvh()+cm.HostCopy(1))
			m.Send(t, rank, int(op.parent), 1, fc, ptag(fkBarUp, false, int(op.parent), rank, op.seq))
			if !fc.recvStart(rank, fr, fkBarDown, op.parent) {
				return
			}
		}
	}
	it := Kids(rank, 0, fc.Size)
	for c := it.Next(); c >= 0; c = it.Next() {
		t := fr.hostRun(fr.busy, cm.HostSendOvh()+cm.HostCopy(1))
		m.Send(t, rank, c, 1, fc, ptag(fkBarDown, false, c, rank, op.seq))
	}
	fc.opDone(rank, fr.busy)
}

// abInternal is the internal-rank application-bypass call (Fig. 3 left
// column): disable signals, charge the accumulator copy and descriptor
// push, drain early contributions from the AB unexpected queue, run one
// progress pass over whatever the NIC already delivered, re-arm signals
// iff the instance is still outstanding, and return.
func (fc *FlowColl) abInternal(rank int, at sim.Time, seq uint32, tr Tree) {
	cm := fc.M.CMs[rank]
	fr := &fc.ranks[rank]
	lp := fr.lp
	fr.sigOn = false
	t := fr.hostRun(at, cm.HostCopy(fc.bytes))
	t = fr.hostRun(t, cm.DescriptorOvh())

	prev := fr.descs.t
	di := lp.descs.get(fdesc{seq: seq, parent: int32(tr.Parent(rank))})
	lp.descs.push(&fr.descs, di)
	fr.ndesc++
	d := &lp.descs.v[di] // the descs slab does not grow until the call returns
	it := tr.Kids(rank)
	for c := it.Next(); c >= 0; c = it.Next() {
		k := lp.kids.get(int32(c))
		lp.kids.next[k] = d.pending
		d.pending = k
	}

	// drainUBQ: combine queued early messages straight from the queue;
	// pos is the message's 1-based place in the queue as it stands.
	for pi, pprev, pos := fr.abq.h, int32(0), 1; pi != 0 && d.pending != 0; {
		pk := lp.pkts.v[pi]
		nx := lp.pkts.next[pi]
		if pk.seq != d.seq || !lp.pendingHas(d, pk.src) {
			pprev, pi = pi, nx
			pos++
			continue
		}
		t = fr.hostRun(t, cm.QueueSearch(pos))
		lp.pkts.unlink(&fr.abq, pprev, pi)
		pi = nx
		t = fr.hostRun(t, cm.ReduceOp(fc.prog.Count, 8))
		lp.removePending(d, pk.src)
	}
	if d.pending == 0 {
		fc.completeDesc(rank, fr, prev, di, false)
	} else {
		// syncPhase's progress pass: handle every delivered message.
		for fr.nicq.h != 0 {
			fc.processPkt(rank, fr, lp.pkts.pop(&fr.nicq), false)
		}
	}
	fr.sigOn = fr.ndesc > 0
	fc.opDone(rank, fr.busy)
}

// recvStart begins a blocking receive of kind from src, in the op's
// instance, at rank's current host time: charge the receive overhead
// and unexpected-queue search, match a buffered message (second copy)
// or post and drain the NIC queue until matched. Returns true when the
// receive completed synchronously; false when the rank is parked
// polling and a future delivery will resume it.
func (fc *FlowColl) recvStart(rank int, fr *frank, kind uint8, src int32) bool {
	cm := fc.M.CMs[rank]
	lp := fr.lp
	op := &fr.op
	t := fr.hostRun(fr.busy, cm.HostRecvOvh()+cm.QueueSearch(int(fr.nunexp)))
	for i, prev := fr.unexp.h, int32(0); i != 0; prev, i = i, lp.pkts.next[i] {
		if pk := &lp.pkts.v[i]; pk.kind == kind && pk.src == src && pk.seq == op.seq {
			lp.pkts.unlink(&fr.unexp, prev, i)
			fr.nunexp--
			fr.hostRun(t, cm.HostCopy(fc.size(kind)))
			return true
		}
	}
	op.pkind, op.psrc = kind, src
	op.waiting = true
	for op.waiting && fr.nicq.h != 0 {
		fc.processPkt(rank, fr, lp.pkts.pop(&fr.nicq), false)
	}
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
	lp := fr.lp
	size := fc.size(pkt.kind)
	ts := fr.busy
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
		cost += cm.QueueSearch(int(fr.ndesc))
		if prev, di := fc.findDesc(fr, pkt.seq, pkt.src); di != 0 {
			cost += cm.ReduceOp(fc.prog.Count, 8)
			fr.hostCharge(ts, cost, intr)
			d := &lp.descs.v[di]
			lp.removePending(d, pkt.src)
			if d.pending == 0 {
				fc.completeDesc(rank, fr, prev, di, intr)
			}
			return false
		}
		if rank != fc.prog.Root {
			// No descriptor yet: copy into the AB unexpected queue.
			cost += cm.HostCopy(size)
			fr.hostCharge(ts, cost, intr)
			lp.pkts.push(&fr.abq, lp.pkts.get(pkt))
			return false
		}
		// Fig. 4 root check: fall through to default matching.
	}
	posted := 0
	if fr.op.waiting {
		posted = 1
	}
	cost += cm.QueueSearch(posted)
	cost += cm.HostCopy(size)
	fr.hostCharge(ts, cost, intr)
	if op := &fr.op; op.waiting && pkt.kind == op.pkind && pkt.src == op.psrc && pkt.seq == op.seq {
		op.waiting = false
		return true
	}
	lp.pkts.push(&fr.unexp, lp.pkts.get(pkt))
	fr.nunexp++
	return false
}

// completeDesc finishes descriptor di, which follows prev in rank's
// descriptor list: the eager upward send of the combined result and
// the Fig. 3 signal re-arm.
func (fc *FlowColl) completeDesc(rank int, fr *frank, prev, di int32, intr bool) {
	m, cm := fc.M, fc.M.CMs[rank]
	d := fr.lp.descs.v[di]
	t := fr.hostCharge(fr.busy, cm.HostSendOvh()+cm.HostCopy(fc.bytes), intr)
	m.Send(t, rank, int(d.parent), fc.bytes, fc, ptag(fkReduce, true, int(d.parent), rank, d.seq))
	fr.lp.descs.unlink(&fr.descs, prev, di)
	fr.ndesc--
	fr.sigOn = fr.ndesc > 0
}

// findDesc returns the first of rank's descriptors for instance seq
// still waiting on src, and the descriptor before it; di is 0 if none.
func (fc *FlowColl) findDesc(fr *frank, seq uint32, src int32) (prev, di int32) {
	lp := fr.lp
	for di = fr.descs.h; di != 0; prev, di = di, lp.descs.next[di] {
		if d := &lp.descs.v[di]; d.seq == seq && lp.pendingHas(d, src) {
			return prev, di
		}
	}
	return 0, 0
}

func (lp *flowLP) pendingHas(d *fdesc, src int32) bool {
	for k := d.pending; k != 0; k = lp.kids.next[k] {
		if lp.kids.v[k] == src {
			return true
		}
	}
	return false
}

func (lp *flowLP) removePending(d *fdesc, src int32) {
	q := fifo{h: d.pending} // the tail is not kept: unlink only reads it
	for k, prev := d.pending, int32(0); k != 0; prev, k = k, lp.kids.next[k] {
		if lp.kids.v[k] == src {
			lp.kids.unlink(&q, prev, k)
			d.pending = q.h
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
	cm := fc.M.CMs[rank]
	switch fr.op.kind {
	case opReduce:
		fr.hostRun(fr.busy, cm.ReduceOp(fc.prog.Count, 8))
		fc.reduceLoop(rank, fr)
	case opBarrier:
		fc.barrierLoop(rank, fr)
	case opRecv:
		fc.opDone(rank, fr.busy)
	default:
		panic("coll: flow delivery resumed an idle rank")
	}
}

// FlowEvent receives Machine callbacks: message deliveries.
func (fc *FlowColl) FlowEvent(tag uint64, at sim.Time) {
	fc.deliver(int(tag>>4&0x1FFFFF), fpkt{
		kind: uint8(tag & 7),
		coll: tag&8 != 0,
		src:  int32(tag >> 25 & 0x1FFFFF),
		seq:  uint32(tag >> 46),
		tr:   at,
	})
}

// deliver routes one NIC deposit: raise a (coalesced) signal for
// collective messages when armed, process immediately when the rank is
// parked polling in a blocking call, queue otherwise.
func (fc *FlowColl) deliver(dst int, pkt fpkt) {
	fr := &fc.ranks[dst]
	if pkt.coll && fr.sigOn && !fr.sigPend {
		fr.sigPend = true
		fr.lp.wake(pkt.tr+fc.M.CMs[dst].SignalDelay(), (*sigWake)(fr))
	}
	if fr.op.waiting {
		if fc.processPkt(dst, fr, pkt, false) {
			fc.opAdvance(dst, fr)
		}
		return
	}
	fr.lp.pkts.push(&fr.nicq, fr.lp.pkts.get(pkt))
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
	cm := fc.M.CMs[rank]
	if fr.nicq.h == 0 {
		fr.hostIntr(th, cm.SignalIgnoredOvh())
		return
	}
	fr.hostIntr(th, cm.SignalOvh())
	fc.out.Signals[rank]++
	for fr.nicq.h != 0 {
		fc.processPkt(rank, fr, fr.lp.pkts.pop(&fr.nicq), true)
	}
}

// Quiescent returns nil when a finished run left nothing queued, posted
// or pending on any rank — the flow image of gm's assertHome — and
// otherwise says what the first such rank holds.
func (fc *FlowColl) Quiescent() error {
	for r := range fc.ranks {
		fr := &fc.ranks[r]
		pk := &fr.lp.pkts
		if n := pk.count(fr.nicq); n != 0 {
			return fmt.Errorf("rank %d: %d messages left in the NIC queue", r, n)
		}
		if fr.unexp.h != 0 || fr.abq.h != 0 || fr.descs.h != 0 {
			return fmt.Errorf("rank %d: unexpected=%d ab-unexpected=%d descriptors=%d at quiescence",
				r, pk.count(fr.unexp), pk.count(fr.abq), fr.lp.descs.count(fr.descs))
		}
		if fr.sigPend || fr.op.kind != opNone {
			return fmt.Errorf("rank %d: signal pending=%v, op kind=%d at quiescence", r, fr.sigPend, fr.op.kind)
		}
	}
	return nil
}
