package gm

import (
	"fmt"

	"abred/internal/fabric"
	"abred/internal/model"
	"abred/internal/sim"
)

// Stats counts NIC activity.
type Stats struct {
	Sent, Received     uint64
	BytesSent          uint64
	SignalsRaised      uint64
	SignalsSuppressed  uint64 // collective arrivals while signals disabled
	FirmwareConsumed   uint64 // packets absorbed by NIC-resident firmware
	TokenStallsHost    uint64 // host sends that had to wait for a token
	TokenStallsNIC     uint64 // deliveries stalled for a receive token
	MaxHostQueueDepth  int
	CollectiveArrivals uint64

	// Reliability counters (Reset(true)).
	Retransmits    uint64 // data packets re-sent after a timeout
	RelAcksSent    uint64 // standalone cumulative acks emitted
	RelDupsDropped uint64 // duplicate / out-of-order arrivals discarded
	RelOverflow    uint64 // sends past the retransmit-ring bound
	RelPortErrors  uint64 // peers declared dead after the retry budget
	RelPeers       uint64 // peers with sequenced or acked traffic since Reset (live link state)
}

// nicEvent multiplexes the two work sources of the LANai control program.
type nicEvent struct {
	send *Packet // DMA descriptor posted by the host
	recv *Packet // packet arriving from the wire
}

// Firmware is NIC-resident packet processing (the paper's future-work
// direction, refs [9–11]: perform part of the reduction on the NIC).
// It runs inline in control-program context (a callback daemon, so it
// must not park); LANai processing time is charged through fw.Charge and
// packet actions are posted with fw.DeliverToHost / fw.Forward, which
// the control program performs once the charged time has elapsed.
// Returning true absorbs the packet so it is never delivered to the
// host; a handler that declines a packet must not charge or post
// actions.
type Firmware func(fw *FwOps, pkt *Packet) bool

// FwOps collects one firmware invocation's time charge and deferred
// packet actions. The control program sleeps for the accumulated charge,
// then performs the actions in posting order — equivalent in virtual
// time to a blocking control program that interleaved Sleep calls with
// its sends, since all actions happen at the end of the charged window.
type FwOps struct {
	charge sim.Time
	acts   []fwAct
}

// fwAct is one deferred firmware action.
type fwAct struct {
	deliver bool // true: host delivery (token-gated); false: wire send
	pkt     *Packet
}

// Charge accrues d of LANai processing time for the current packet.
func (o *FwOps) Charge(d sim.Time) { o.charge += d }

// DeliverToHost posts pkt for delivery to the host receive queue after
// the charged time elapses, respecting receive tokens.
func (o *FwOps) DeliverToHost(pkt *Packet) {
	o.acts = append(o.acts, fwAct{deliver: true, pkt: pkt})
}

// Forward posts pkt for transmission onto the wire after the charged
// time elapses.
func (o *FwOps) Forward(pkt *Packet) {
	o.acts = append(o.acts, fwAct{pkt: pkt})
}

// reset clears the ops for the next invocation, keeping capacity.
func (o *FwOps) reset() {
	o.charge = 0
	o.acts = o.acts[:0]
}

// Control-program states (see NIC.step).
const (
	nicIdle      = iota // waiting for evQ work
	nicBusy             // charging LANai per-packet processing time
	nicFwActs           // performing deferred firmware actions
	nicStalled          // host delivery waiting on a receive token
	nicFwStalled        // firmware delivery waiting on a receive token
)

// NIC models one GM network interface: a LANai processor running a
// control program, DMA queues to and from the host, and the paper's
// signal machinery. The control program is a callback daemon — a state
// machine driven entirely in scheduler context — rather than a
// goroutine: at N nodes that removes N parked goroutines and two
// context switches per NIC packet from the simulation hot path.
type NIC struct {
	k    *sim.Kernel
	node int
	cm   model.CostModel
	fab  *fabric.Fabric

	// The control daemon, work queues and token condition are embedded
	// by value: one NIC is one allocation (plus its name strings), so
	// NewNICs can slab-allocate a whole cluster's worth.
	ctl   sim.Daemon
	evQ   sim.Queue[nicEvent] // drained by the control program via TryGet
	hostQ sim.Queue[*Packet]

	st    int      // control-program state
	cur   nicEvent // event being processed while busy
	fw    FwOps    // current packet's firmware charge and actions
	fwIdx int      // next firmware action to perform

	signalsOn  bool
	sigPending bool
	sigTarget  func()

	firmware Firmware

	sendTokens int
	tokenCond  sim.Cond

	// Receive tokens: GM can only deliver into host buffers the
	// application provided in advance; a delivery with no token parks
	// the control program (in NIC memory) until the host recycles one.
	recvTokens int

	// pfree recycles eager packets and their payload buffers: the
	// sender draws from its NIC's pool, the consumer releases into its
	// own NIC's pool (same kernel, so no synchronization is needed).
	// poolCap bounds it; SetPacketPoolCap right-sizes the default for
	// very large clusters.
	pfree   []*Packet
	poolCap int

	// rel is the reliability engine (see reliability.go), built by the
	// first Reset(true) and kept afterwards, so toggling reliability
	// across Reset cycles never registers a second timer daemon. relOn
	// says whether it runs; relErr records its first port error for
	// cluster.Run to surface.
	rel    *relState
	relOn  bool
	relErr error

	stats Stats
}

// maxPacketPool is the default cap on the per-NIC recycled-packet list,
// so a burst does not pin its high-water mark in memory forever.
const maxPacketPool = 256

// SetPacketPoolCap bounds this NIC's recycled-packet list. Cluster
// construction right-sizes the default for the cluster scale: at 16384
// nodes the default 256-packet pools could pin four million idle
// packets. Pool hits and misses never touch virtual time, so the cap is
// invisible to simulation results.
func (n *NIC) SetPacketPoolCap(c int) {
	if c < 4 {
		c = 4
	}
	n.poolCap = c
	if len(n.pfree) > c {
		for i := c; i < len(n.pfree); i++ {
			n.pfree[i] = nil
		}
		n.pfree = n.pfree[:c]
	}
}

// GetPacket returns a packet with a zeroed header and a Data buffer of
// length size, reusing a recycled packet (and its buffer, when large
// enough) if one is available. The final consumer releases it with
// PutPacket on any NIC of the same kernel.
func (n *NIC) GetPacket(size int) *Packet {
	var pkt *Packet
	if l := len(n.pfree); l > 0 {
		pkt = n.pfree[l-1]
		n.pfree[l-1] = nil
		n.pfree = n.pfree[:l-1]
	} else {
		pkt = &Packet{owner: n}
	}
	if cap(pkt.Data) < size {
		pkt.Data = make([]byte, size)
	}
	pkt.Data = pkt.Data[:size]
	return pkt
}

// PutPacket releases a packet whose payload has been fully consumed
// (copied or combined out). Only pool-allocated packets are recycled —
// into the pool they came from, which may be another NIC of the same
// (single-threaded) kernel. Literals pass through to the garbage
// collector, so release sites can call this unconditionally.
func (n *NIC) PutPacket(pkt *Packet) {
	if pkt == nil || pkt.owner == nil {
		return
	}
	o := pkt.owner
	if len(o.pfree) >= o.poolCap {
		return
	}
	data := pkt.Data[:0]
	*pkt = Packet{owner: o, Data: data}
	o.pfree = append(o.pfree, pkt)
}

// DefaultSendTokens matches GM's out-of-the-box send-token allotment.
const DefaultSendTokens = 61

// DefaultRecvTokens is the receive-buffer pool MPICH-over-GM provides
// at startup.
const DefaultRecvTokens = 256

// NewNIC creates the NIC for one node and starts its control program.
func NewNIC(k *sim.Kernel, node int, cm model.CostModel, fab *fabric.Fabric) *NIC {
	n := &NIC{}
	n.init(k, node, cm, fab)
	return n
}

// NewNICs creates the NICs of a whole cluster as one slab: one backing
// allocation for all N NIC structs (queues, conditions and control
// daemons are embedded by value) instead of N separate ones, which both
// speeds construction and keeps per-node state contiguous. Each NIC
// runs on the kernel of its node's logical process (ks[pmap[i]]; a nil
// pmap puts every NIC on ks[0]), so its control program, queues and
// reliability daemon all live where the node's events execute.
func NewNICs(ks []*sim.Kernel, pmap []int32, cms []model.CostModel, fab *fabric.Fabric) []*NIC {
	slab := make([]NIC, len(cms))
	nics := make([]*NIC, len(cms))
	for i := range slab {
		k := ks[0]
		if pmap != nil {
			k = ks[pmap[i]]
		}
		slab[i].init(k, i, cms[i], fab)
		nics[i] = &slab[i]
	}
	return nics
}

// ReownHook returns the fabric Reown hook: a pooled packet crossing LPs
// is transferred to its destination's NIC pool, so PutPacket at the
// consumer never touches a pool owned by another LP. Literal (unpooled)
// packets pass through untouched.
func ReownHook(nics []*NIC) func(payload any, dst int) {
	return func(payload any, dst int) {
		if pkt, ok := payload.(*Packet); ok && pkt.owner != nil {
			pkt.owner = nics[dst]
		}
	}
}

// init wires one NIC in place, registers its control program and ends
// in Reset(false): an unreliable NIC in its just-built state.
func (n *NIC) init(k *sim.Kernel, node int, cm model.CostModel, fab *fabric.Fabric) {
	n.k = k
	n.node = node
	n.cm = cm
	n.fab = fab
	n.evQ.Init(fmt.Sprintf("nic%d.ev", node))
	n.hostQ.Init(fmt.Sprintf("nic%d.host", node))
	n.tokenCond.Init(fmt.Sprintf("nic%d.tokens", node))
	n.poolCap = maxPacketPool
	fab.Connect(node, n.onFrame)
	k.InitDaemon(&n.ctl, fmt.Sprintf("lanai%d", node), n.step)
	n.Reset(false)
}

// onFrame is the fabric delivery sink: the arriving packet enters the
// control program's event queue.
func (n *NIC) onFrame(fr fabric.Frame) {
	n.evQ.Put(nicEvent{recv: fr.Payload.(*Packet)})
	n.ctl.Wake()
}

// Reset puts the NIC in its just-built state, keeping what is expensive
// and semantically inert: the packet pool (pool hits never touch virtual
// time), queue/condition ring capacity, and the registered control
// daemon (already disarmed by the kernel reset that precedes a reuse
// cycle). reliable switches reliable delivery (see reliability.go) on or
// off; the engine is built on first use and, on or off, every Reset
// clears its per-peer state. Fault-injected fabrics require it on every
// NIC: without it a dropped frame hangs the collective and a duplicated
// frame corrupts the packet pools. Call it before any traffic flows.
func (n *NIC) Reset(reliable bool) {
	n.evQ.Reset()
	n.hostQ.Reset()
	n.tokenCond.Reset()
	n.st = nicIdle
	n.cur = nicEvent{}
	n.fw.reset()
	n.fwIdx = 0
	n.signalsOn = false
	n.sigPending = false
	n.sigTarget = nil
	n.firmware = nil
	n.sendTokens = DefaultSendTokens
	n.recvTokens = DefaultRecvTokens
	n.stats = Stats{}
	n.relErr = nil
	n.relOn = reliable
	if n.rel != nil {
		n.rel.reset()
	} else if reliable {
		n.rel = newRelState(n)
	}
	n.ctl.SetStatus("ev queue")
}

// Stats returns a copy of the NIC counters.
func (n *NIC) Stats() Stats { return n.stats }

// step is the LANai control-program state machine: it serializes
// send-side and receive-side packet processing on the single NIC
// processor, exactly like the goroutine loop it replaced — each state
// transition mirrors one park point of the old blocking code, so packet
// timings and orderings are unchanged.
func (n *NIC) step() {
	for {
		switch n.st {
		case nicIdle:
			ev, ok := n.evQ.TryGet()
			if !ok {
				n.ctl.SetStatus("ev queue")
				return
			}
			n.cur = ev
			n.st = nicBusy
			pkt := ev.send
			if pkt == nil {
				pkt = ev.recv
			}
			// DMA the payload across PCI and process the packet.
			n.ctl.Sleep(n.cm.NICPkt(len(pkt.Data)))
			return

		case nicBusy:
			if pkt := n.cur.send; pkt != nil {
				// Under reliability, a host send's token stays held
				// until the packet is acked (GM completes a send on
				// guaranteed delivery); otherwise it recycles now.
				hold := n.relOn && n.rel.sequence(pkt, true)
				n.inject(pkt)
				if !hold {
					n.sendTokens++
					n.tokenCond.Broadcast()
				}
				n.st = nicIdle
				continue
			}
			pkt := n.cur.recv
			n.stats.Received++
			if n.relOn && !n.rel.accept(pkt) {
				// Standalone ack, duplicate, or out-of-order arrival:
				// swallowed (and recycled) by the reliability engine.
				n.st = nicIdle
				continue
			}
			if n.firmware != nil {
				n.fw.reset()
				n.fwIdx = 0
				if n.firmware(&n.fw, pkt) {
					n.stats.FirmwareConsumed++
					n.st = nicFwActs
					if n.fw.charge > 0 {
						n.ctl.Sleep(n.fw.charge)
						return
					}
					continue
				}
			}
			if n.recvTokens == 0 {
				n.stats.TokenStallsNIC++
				n.st = nicStalled
				n.ctl.SetStatus("recv token")
				return
			}
			n.deliver(pkt)
			n.st = nicIdle

		case nicStalled:
			if n.recvTokens == 0 {
				return // spurious wake; still no token
			}
			n.deliver(n.cur.recv)
			n.st = nicIdle

		case nicFwActs:
			for n.fwIdx < len(n.fw.acts) {
				act := n.fw.acts[n.fwIdx]
				if act.deliver && n.recvTokens == 0 {
					n.stats.TokenStallsNIC++
					n.st = nicFwStalled
					n.ctl.SetStatus("recv token")
					return
				}
				n.fwIdx++
				if act.deliver {
					n.recvTokens--
					n.pushHost(act.pkt)
				} else {
					act.pkt.SrcNode = n.node
					if n.relOn {
						n.rel.sequence(act.pkt, false)
					}
					n.inject(act.pkt)
				}
			}
			n.st = nicIdle

		case nicFwStalled:
			if n.recvTokens == 0 {
				return // spurious wake; still no token
			}
			n.st = nicFwActs
		}
	}
}

// inject puts pkt on the wire and updates send-side counters.
func (n *NIC) inject(pkt *Packet) {
	n.fab.Send(fabric.Frame{Src: n.node, Dst: pkt.DstNode, Size: pkt.WireSize(), Payload: pkt})
	n.stats.Sent++
	n.stats.BytesSent += uint64(pkt.WireSize())
}

// deliver consumes a receive token, lands pkt in the host queue, and
// raises the collective-arrival signal if enabled. Callers have already
// verified a token is free.
func (n *NIC) deliver(pkt *Packet) {
	n.recvTokens--
	n.pushHost(pkt)
	if pkt.IsCollective() {
		n.stats.CollectiveArrivals++
		if n.signalsOn {
			n.raise()
		} else {
			n.stats.SignalsSuppressed++
		}
	}
}

// pushHost lands a packet in the host receive queue.
func (n *NIC) pushHost(pkt *Packet) {
	n.hostQ.Put(pkt)
	if d := n.hostQ.Len(); d > n.stats.MaxHostQueueDepth {
		n.stats.MaxHostQueueDepth = d
	}
}

// ReturnRecvToken recycles one receive buffer; hosts call it for every
// packet they consume.
func (n *NIC) ReturnRecvToken() {
	n.recvTokens++
	n.wakeIfStalled()
}

// wakeIfStalled resumes the control program when it is parked on a
// receive token.
func (n *NIC) wakeIfStalled() {
	if n.st == nicStalled || n.st == nicFwStalled {
		n.ctl.Wake()
	}
}

// raise delivers a signal to the host unless one is already pending —
// Unix signals of one number coalesce, and so does this model. Delivery
// takes SignalDelay of kernel latency, during which further arrivals
// batch into the same handler invocation.
func (n *NIC) raise() {
	if n.sigPending || n.sigTarget == nil {
		return
	}
	n.sigPending = true
	n.stats.SignalsRaised++
	if d := n.cm.SignalDelay(); d > 0 {
		n.k.After(d, n.sigTarget)
	} else {
		n.sigTarget()
	}
}

// Send hands a packet to the NIC, consuming a send token; the caller
// parks if none are free (GM flow control). Host-side costs (library
// overhead, bounce-buffer copies) are the caller's to charge — this is
// the boundary where the message leaves host software.
func (n *NIC) Send(p *sim.Proc, pkt *Packet) {
	for n.sendTokens == 0 {
		n.stats.TokenStallsHost++
		n.tokenCond.Wait(p)
	}
	n.sendTokens--
	pkt.SrcNode = n.node
	n.evQ.Put(nicEvent{send: pkt})
	n.ctl.Wake()
}

// Poll removes the next received packet without blocking.
func (n *NIC) Poll() (*Packet, bool) { return n.hostQ.TryGet() }

// HasPackets reports whether received packets are waiting for the host.
func (n *NIC) HasPackets() bool { return n.hostQ.Len() > 0 }

// Recv parks until a packet arrives. The caller models GM's polling
// receive, so it should charge the blocked time as CPU. Only one
// process, the node's rank, may wait on a NIC at a time.
func (n *NIC) Recv(p *sim.Proc) *Packet { return n.hostQ.Get(p) }

// RecvTimeout is Recv bounded by d.
func (n *NIC) RecvTimeout(p *sim.Proc, d sim.Time) (*Packet, bool) {
	return n.hostQ.GetTimeout(p, d)
}

// EnableSignals lets the NIC raise a signal on collective-packet
// arrival (§V-A).
func (n *NIC) EnableSignals() { n.signalsOn = true }

// DisableSignals stops signal generation; packets still queue for
// polling.
func (n *NIC) DisableSignals() { n.signalsOn = false }

// SignalsEnabled reports the current signal mode.
func (n *NIC) SignalsEnabled() bool { return n.signalsOn }

// SetSignalHandler installs the host-side signal target. It runs in
// control-program (scheduler) context; implementations typically
// Interrupt the host process.
func (n *NIC) SetSignalHandler(fn func()) { n.sigTarget = fn }

// ConsumePendingSignal atomically claims the pending signal, reporting
// whether one was outstanding. Two paths race for it: the host-side
// signal handler, and the progress engine when it dequeues the packet
// first (in which case the handler finds nothing and the trap cost is
// charged where the packet was actually processed).
func (n *NIC) ConsumePendingSignal() bool {
	if !n.sigPending {
		return false
	}
	n.sigPending = false
	return true
}

// SetFirmware installs NIC-resident packet processing (NIC-based
// reduction extension).
func (n *NIC) SetFirmware(fw Firmware) { n.firmware = fw }

// Deliver injects a host-built packet into the NIC as if it had arrived
// from the wire; the control program charges normal processing costs and
// offers it to the firmware. The NIC-based reduction uses this to
// deposit the host's own contribution into NIC memory.
func (n *NIC) Deliver(pkt *Packet) {
	pkt.SrcNode = n.node
	n.evQ.Put(nicEvent{recv: pkt})
	n.ctl.Wake()
}
