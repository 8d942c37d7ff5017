package gm

import (
	"fmt"
	"time"

	"abred/internal/fabric"
	"abred/internal/sim"
)

// Reliability protocol — NIC.Reset(true) — in one page:
//
// GM's firmware guarantees in-order, exactly-once delivery per
// (source, destination) pair; on a perfect fabric the simulator gets
// that for free from the fabric's per-link FIFO. Under fault injection
// (internal/fault) frames are dropped, duplicated and delayed, so the
// NIC must earn the guarantee the way real GM does: at the NIC level,
// invisible to MPICH.
//
//   - Every sequenced packet (all data types) carries RelSeq, a per-link
//     sequence number starting at 1, and RelAck, a piggybacked cumulative
//     ack for the reverse direction.
//   - The receiver accepts only RelSeq == recvdTo+1 (go-back-N), which
//     preserves the FIFO ordering MPICH-over-GM relies on; duplicates
//     and out-of-order arrivals are discarded, recycled, and re-acked.
//   - The sender keeps a deep copy of each unacked packet in a bounded
//     per-link retransmit ring (the original is consumed — and pooled —
//     by the receiver). A per-NIC callback daemon, woken by WakeAt
//     deadlines, resends the whole window on timeout with exponential
//     backoff; relMaxRounds unanswered rounds mark the port dead: the
//     ring is released, the error is recorded for cluster.Run to
//     surface, and the simulation stops instead of hanging the
//     deadlock watchdog.
//   - Acks are delayed relAckDelay so reverse data traffic piggybacks
//     them for free; a standalone RelAck packet (unsequenced) goes out
//     only when no reverse traffic materialized.
//   - A host send's token is held until the packet is acked — GM's real
//     semantics: the send callback fires on guaranteed delivery — so
//     the token allotment doubles as the reliability window and keeps
//     the ring under relRingCap.
//
// Loopback frames and local NIC.Deliver deposits never cross the lossy
// switch and bypass the protocol entirely. All timer decisions run in
// scheduler context on the daemon; no goroutines, no real time.
const (
	// relAckDelay batches cumulative acks: reverse data traffic inside
	// the window piggybacks the ack for free.
	relAckDelay = 30 * time.Microsecond
	// relBaseRTO is the first retransmit timeout — far above the
	// one-way small-packet latency plus relAckDelay, so a healthy link
	// never spuriously retransmits.
	relBaseRTO = 150 * time.Microsecond
	// relHopRTO widens a link's base timeout per switch crossing beyond
	// the first: on a routed multi-stage fabric the round trip grows
	// with hop latency and queuing at shared uplinks, so the RTO must
	// key on the routed path, not just the endpoints. Single-crossbar
	// links (one crossing) keep exactly relBaseRTO.
	relHopRTO = 25 * time.Microsecond
	// relMaxRTO caps the exponential backoff.
	relMaxRTO = 2400 * time.Microsecond
	// relMaxRounds of unanswered retransmission mark the port dead.
	relMaxRounds = 8
	// relRingCap bounds the per-link retransmit ring. Host sends stay
	// under it via token flow control; RelOverflow counts (and the ring
	// absorbs) firmware-generated bursts that exceed it.
	relRingCap = 128
)

// BaseRTO returns the first retransmit timeout of a link whose route
// crosses hops switches. The flow engine's loss expectation uses it too,
// so both engines price a lost frame with the same timeout.
func BaseRTO(hops int) sim.Time {
	if hops <= 1 {
		return relBaseRTO
	}
	return relBaseRTO + sim.Time(hops-1)*relHopRTO
}

// relEntry is one unacked sequenced packet, deep-copied at send time:
// the original travels the wire and is consumed (and recycled) by the
// receiver, so retransmission must rebuild from an owned copy.
type relEntry struct {
	hdr   Packet // header copy; Data and owner stay nil
	data  []byte // owned copy of the payload
	token bool   // holds a send token until acked (host sends only)
}

// relLink is the reliability state for one peer, both directions.
type relLink struct {
	peer int // node at the other end

	// Sender side.
	nextSeq uint64      // last sequence number assigned
	ring    []*relEntry // unacked packets, in sequence order
	rtxAt   sim.Time    // retransmit deadline (0 = ring empty)
	rto     sim.Time    // current timeout, backoff applied
	rounds  int         // consecutive timeout rounds without progress

	// Receiver side.
	recvdTo  uint64   // highest in-order sequence received
	sentAck  uint64   // cumulative ack last conveyed to the peer
	ackAt    sim.Time // standalone-ack deadline (0 = none owed)
	forceAck bool     // re-ack even without progress (duplicate seen)

	active bool // link is in the daemon's active list
}

// deadline returns the link's earliest pending deadline, 0 if none.
func (l *relLink) deadline() sim.Time {
	switch {
	case l.ackAt == 0:
		return l.rtxAt
	case l.rtxAt == 0:
		return l.ackAt
	case l.rtxAt < l.ackAt:
		return l.rtxAt
	}
	return l.ackAt
}

// relState is one NIC's reliability engine: per-peer link state plus
// the timer daemon that drives delayed acks and retransmissions.
//
// A link exists only for a peer this NIC has exchanged traffic with: a
// reduction tree plus a barrier touch O(log N) peers, so per-NIC state
// grows with the traffic pattern, not with the cluster. Each link is
// its own allocation, made on first contact and never moved — accept,
// onAck, step and retransmit hold a *relLink while further links may
// open — and is found through tab. All of it belongs to this NIC, so
// only the kernel of the NIC's logical process ever touches it.
type relState struct {
	n      *NIC
	d      *sim.Daemon
	links  []*relLink // contacted peers, in first-contact order
	tab    []*relLink // the same links, open-addressed by peer; see find
	lfree  []*relLink // cleared links awaiting reuse, ring capacity kept
	active []*relLink // links with a pending deadline
	efree  []*relEntry

	// rto0 is the hop-scaled base retransmit timeout, indexed by routed
	// switch-crossing count. Built once at wire-up (the topology is a
	// construction-time property), so linkRTO is a pure read — safe from
	// any logical process without lazy per-link recomputation, and O(max
	// hops) rather than O(peers) to build.
	rto0 []sim.Time
}

// newRelState builds n's reliability engine and registers its timer
// daemon; NIC.Reset(true) calls it the first time a NIC needs one.
func newRelState(n *NIC) *relState {
	r := &relState{n: n, tab: make([]*relLink, relTabMin)}
	r.rto0 = make([]sim.Time, n.fab.MaxHops()+1)
	for h := range r.rto0 {
		r.rto0[h] = BaseRTO(h)
	}
	r.d = n.k.NewDaemon(fmt.Sprintf("gmrel%d", n.node), r.step)
	r.d.SetStatus("rel timers")
	return r
}

// reset forgets every contacted peer: ring entries are recycled and
// each link moves, cleared but with its ring capacity, to the free
// list. A link is in exactly one of links and lfree, so a reset that
// finds no contacted peer moves nothing. Links are freed last-contacted
// first, so a rerun of the same traffic hands every peer the link (and
// ring) it had before. The entry pool, the lookup table's size and the
// timer-daemon registration are kept; the kernel reset that precedes
// this already disarmed the daemon's pending step.
func (r *relState) reset() {
	for i := len(r.links) - 1; i >= 0; i-- {
		l := r.links[i]
		for j, e := range l.ring {
			r.putEntry(e)
			l.ring[j] = nil
		}
		*l = relLink{ring: l.ring[:0]}
		r.lfree = append(r.lfree, l)
	}
	r.links = r.links[:0]
	clear(r.tab)
	r.active = r.active[:0]
	r.d.SetStatus("rel timers")
}

// relTabMin is the initial size of the peer lookup table. Sizes are
// powers of two and the table is kept at most half full, so a probe
// sequence always ends at an empty slot.
const relTabMin = 8

// home is where probing for peer starts in a table of size slots: a
// multiplicative hash (the high bits of the product, scaled to the
// table), so the strided ranks a reduction tree talks to spread out.
func home(peer, size int) int {
	return int(uint64(uint32(peer)*2654435769) * uint64(size) >> 32)
}

// find returns the link to peer, nil if there has been no contact. It
// runs once per sequenced or accepted packet: linear probing over link
// pointers, no Go map.
func (r *relState) find(peer int) *relLink {
	mask := len(r.tab) - 1
	for i := home(peer, len(r.tab)); ; i = (i + 1) & mask {
		if l := r.tab[i]; l == nil || l.peer == peer {
			return l
		}
	}
}

// place records l in the lookup table.
func (r *relState) place(l *relLink) {
	mask := len(r.tab) - 1
	i := home(l.peer, len(r.tab))
	for r.tab[i] != nil {
		i = (i + 1) & mask
	}
	r.tab[i] = l
}

// link returns the link to peer, opening it on first contact: a cleared
// link from the free list if there is one, a fresh allocation otherwise.
// Growing the table re-places pointers, never the links themselves.
func (r *relState) link(peer int) *relLink {
	if l := r.find(peer); l != nil {
		return l
	}
	var l *relLink
	if n := len(r.lfree); n > 0 {
		l = r.lfree[n-1]
		r.lfree = r.lfree[:n-1]
	} else {
		l = &relLink{}
	}
	l.peer = peer
	r.links = append(r.links, l)
	if 2*len(r.links) > len(r.tab) {
		r.tab = make([]*relLink, 2*len(r.tab))
		for _, o := range r.links {
			r.place(o)
		}
	} else {
		r.place(l)
	}
	r.n.stats.RelPeers++
	return l
}

// RelError returns the first port error recorded by the reliability
// engine (a peer that never acked through the full retry budget), nil
// if delivery is healthy.
func (n *NIC) RelError() error { return n.relErr }

// activate puts the link on the daemon's scan list and pulls the timer
// to its deadline.
func (r *relState) activate(l *relLink, at sim.Time) {
	if !l.active {
		l.active = true
		r.active = append(r.active, l)
	}
	r.d.WakeAt(at)
}

// sequence stamps pkt with the next per-link sequence number and the
// freshest cumulative ack for its destination, and records an owned
// copy in the retransmit ring. It reports whether the packet's send
// token (held only by host sends) must be retained until the ack
// arrives. Loopback packets bypass the protocol.
func (r *relState) sequence(pkt *Packet, fromHost bool) bool {
	if pkt.DstNode == r.n.node {
		return false
	}
	l := r.link(pkt.DstNode)
	l.nextSeq++
	pkt.RelSeq = l.nextSeq
	pkt.RelAck = l.recvdTo
	l.sentAck = l.recvdTo
	l.ackAt = 0
	l.forceAck = false

	e := r.getEntry()
	e.hdr = *pkt
	e.hdr.Data = nil
	e.hdr.owner = nil
	e.data = append(e.data[:0], pkt.Data...)
	e.token = fromHost
	if len(l.ring) >= relRingCap {
		r.n.stats.RelOverflow++
	}
	l.ring = append(l.ring, e)
	if l.rtxAt == 0 {
		l.rto = r.linkRTO(pkt.DstNode)
		l.rtxAt = r.n.k.Now() + l.rto
		r.activate(l, l.rtxAt)
	}
	return fromHost
}

// linkRTO returns the link's base retransmit timeout, scaled by the
// routed hop count to the peer — a pure read of the table built at
// wire-up. On the single crossbar every link answers in one crossing
// and the result is exactly relBaseRTO.
func (r *relState) linkRTO(peer int) sim.Time {
	return r.rto0[r.n.fab.Hops(r.n.node, peer)]
}

// accept runs in the control program's receive path. It reports whether
// pkt should continue to the firmware/host; packets it swallows
// (standalone acks, duplicates, out-of-order arrivals) are recycled
// here and never charge host-side costs.
func (r *relState) accept(pkt *Packet) bool {
	if pkt.SrcNode == r.n.node {
		return true // loopback or local Deliver: never sequenced
	}
	l := r.link(pkt.SrcNode)
	r.onAck(l, pkt.RelAck)
	if pkt.Type == RelAck {
		r.n.PutPacket(pkt)
		return false
	}
	if pkt.RelSeq == 0 {
		return true // unsequenced peer (reliability off there)
	}
	if pkt.RelSeq != l.recvdTo+1 {
		// Duplicate or out-of-order. Discard, and re-ack even without
		// progress: the peer may be retransmitting into a lost-ack
		// hole, and only a fresh cumulative ack stops it.
		r.n.stats.RelDupsDropped++
		l.forceAck = true
		if l.ackAt == 0 {
			l.ackAt = r.n.k.Now() + relAckDelay
			r.activate(l, l.ackAt)
		}
		r.n.PutPacket(pkt)
		return false
	}
	l.recvdTo++
	if l.ackAt == 0 {
		l.ackAt = r.n.k.Now() + relAckDelay
		r.activate(l, l.ackAt)
	}
	return true
}

// onAck releases ring entries covered by a cumulative ack and resets
// the backoff state when the ack made progress.
func (r *relState) onAck(l *relLink, ackTo uint64) {
	if len(l.ring) == 0 || ackTo < l.ring[0].hdr.RelSeq {
		return
	}
	k := 0
	for k < len(l.ring) && l.ring[k].hdr.RelSeq <= ackTo {
		e := l.ring[k]
		if e.token {
			r.n.sendTokens++
		}
		r.putEntry(e)
		k++
	}
	r.n.tokenCond.Broadcast()
	m := copy(l.ring, l.ring[k:])
	for i := m; i < len(l.ring); i++ {
		l.ring[i] = nil
	}
	l.ring = l.ring[:m]
	l.rounds = 0
	l.rto = r.linkRTO(l.peer)
	if len(l.ring) == 0 {
		l.rtxAt = 0
	} else {
		l.rtxAt = r.n.k.Now() + l.rto
		r.activate(l, l.rtxAt)
	}
}

// step is the timer daemon: fire due acks and retransmissions, drop
// idle links from the scan list, re-arm for the earliest remaining
// deadline.
func (r *relState) step() {
	now := r.n.k.Now()
	var next sim.Time
	for i := 0; i < len(r.active); {
		l := r.active[i]
		if l.ackAt != 0 && l.ackAt <= now {
			r.sendAck(l)
		}
		if l.rtxAt != 0 && l.rtxAt <= now {
			if !r.retransmit(l) {
				return // port error; simulation is stopping
			}
		}
		d := l.deadline()
		if d == 0 {
			l.active = false
			last := len(r.active) - 1
			r.active[i] = r.active[last]
			r.active = r.active[:last]
			continue
		}
		if next == 0 || d < next {
			next = d
		}
		i++
	}
	if next != 0 {
		r.d.WakeAt(next)
	}
}

// sendAck emits a standalone cumulative ack if reverse traffic did not
// piggyback one inside the delay window.
func (r *relState) sendAck(l *relLink) {
	l.ackAt = 0
	if l.sentAck == l.recvdTo && !l.forceAck {
		return
	}
	l.sentAck = l.recvdTo
	l.forceAck = false
	pkt := r.n.GetPacket(0)
	pkt.Type = RelAck
	pkt.SrcNode = r.n.node
	pkt.DstNode = l.peer
	pkt.RelAck = l.recvdTo
	r.n.stats.RelAcksSent++
	r.n.inject(pkt)
}

// retransmit resends every unacked packet on the link — go-back-N: the
// receiver discards anything out of order, so the whole window must
// travel again — and doubles the timeout. It reports false when the
// link exhausted its retry budget and the port error stopped the run.
func (r *relState) retransmit(l *relLink) bool {
	if len(l.ring) == 0 {
		l.rtxAt = 0
		return true
	}
	l.rounds++
	if l.rounds > relMaxRounds {
		r.portError(l)
		return false
	}
	for _, e := range l.ring {
		pkt := r.n.GetPacket(len(e.data))
		data, owner := pkt.Data, pkt.owner
		*pkt = e.hdr
		pkt.Data, pkt.owner = data, owner
		copy(pkt.Data, e.data)
		pkt.Retries = uint8(l.rounds)
		pkt.RelAck = l.recvdTo
		r.n.stats.Retransmits++
		r.n.inject(pkt)
	}
	// The resent window piggybacked the freshest ack.
	l.sentAck = l.recvdTo
	l.ackAt = 0
	l.forceAck = false
	l.rto *= 2
	if l.rto > relMaxRTO {
		l.rto = relMaxRTO
	}
	l.rtxAt = r.n.k.Now() + l.rto
	return true
}

// portError gives up on a peer: record the first error for
// cluster.Run to surface, release the stranded ring (and its send
// tokens, so parked senders can observe the stop), and halt the
// simulation instead of spinning the backoff forever.
func (r *relState) portError(l *relLink) {
	r.n.stats.RelPortErrors++
	if r.n.relErr == nil {
		r.n.relErr = fmt.Errorf(
			"gm: node %d port to node %d dead: no ack after %d retransmit rounds (%d packets stranded)",
			r.n.node, l.peer, relMaxRounds, len(l.ring))
	}
	for i, e := range l.ring {
		if e.token {
			r.n.sendTokens++
		}
		r.putEntry(e)
		l.ring[i] = nil
	}
	l.ring = l.ring[:0]
	l.rtxAt = 0
	r.n.tokenCond.Broadcast()
	r.n.k.Stop()
}

// getEntry / putEntry recycle ring entries and their payload buffers.
func (r *relState) getEntry() *relEntry {
	if n := len(r.efree); n > 0 {
		e := r.efree[n-1]
		r.efree[n-1] = nil
		r.efree = r.efree[:n-1]
		return e
	}
	return &relEntry{}
}

func (r *relState) putEntry(e *relEntry) {
	e.hdr = Packet{}
	e.token = false
	r.efree = append(r.efree, e)
}

// FaultHooks returns the fabric hooks a fault-injected cluster must
// install: OnDrop recycles pooled packets the injector discards (they
// never reach a sink, so nothing else will), and ClonePayload
// deep-copies packets for duplicated frames — a shared pointer would
// corrupt the pools the moment the first copy is consumed and recycled.
func FaultHooks() (onDrop func(fabric.Frame), clone func(any) any) {
	onDrop = func(fr fabric.Frame) {
		if pkt, ok := fr.Payload.(*Packet); ok && pkt.owner != nil {
			pkt.owner.PutPacket(pkt)
		}
	}
	clone = func(payload any) any {
		pkt, ok := payload.(*Packet)
		if !ok {
			return payload
		}
		var c *Packet
		if pkt.owner != nil {
			c = pkt.owner.GetPacket(len(pkt.Data))
		} else {
			c = &Packet{Data: make([]byte, len(pkt.Data))}
		}
		data, owner := c.Data, c.owner
		*c = *pkt
		c.Data, c.owner = data, owner
		copy(c.Data, pkt.Data)
		return c
	}
	return onDrop, clone
}
