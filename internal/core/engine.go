// Package core implements the paper's contribution: application-bypass
// collective operations. An Engine attaches to an MPI process and adds
//
//   - the descriptor queue holding intermediate reduction state (§V-A),
//   - a dedicated application-bypass unexpected queue (§V-A),
//   - the synchronous reduction component running inside Reduce (Fig. 3),
//   - the asynchronous component driven by NIC signals (Fig. 5), hooked
//     into the MPI progress engine ahead of default matching (Fig. 4),
//   - the §IV-E exit-delay heuristic, and
//   - the paper's stated extensions: split-phase reduction (§II),
//     application-bypass broadcast (ref [8]) and NIC-based reduction
//     (§VII, refs [9–11]).
package core

import (
	"fmt"

	"abred/internal/coll"
	"abred/internal/gm"
	"abred/internal/mpi"
	"abred/internal/sim"
)

// Metrics counts application-bypass activity on one process.
type Metrics struct {
	ABReductions       uint64 // internal-node reductions run in AB mode
	RootReductions     uint64 // instances where this process was root
	LeafReductions     uint64 // instances where this process was a leaf
	SizeFallbacks      uint64 // instances beyond the eager limit (§V-B)
	SyncChildren       uint64 // children processed inside Reduce
	AsyncChildren      uint64 // children processed by the async handler
	EarlyMessages      uint64 // consumed from the AB unexpected queue
	ABUnexpected       uint64 // placed into the AB unexpected queue
	SignalsHandled     uint64
	SignalsIgnored     uint64
	ABCopies           uint64 // host copies on the AB path (the 1-copy case)
	ZeroCopyChildren   uint64 // children combined straight from the packet
	DescQueuePeak      int
	BcastForwards      uint64 // subtrees unblocked before the local call
	DelayHits          uint64 // children caught by the §IV-E exit delay
	DelayExpirations   uint64 // exit delays that elapsed without a message
	RendezvousChildren uint64 // large children streamed via rendezvous AB
	CompletedInstances uint64
	NICReductions      uint64 // instances run on the NIC plane (extension)
	NICCombines        uint64 // combines performed by NIC firmware
}

// Engine is the application-bypass machinery of one process.
type Engine struct {
	pr *mpi.Process

	descQ []*descriptor
	ubq   []*abMsg

	// descFree recycles completed descriptors with their acc and pending
	// backing arrays, so a steady-state internal-node reduction allocates
	// nothing. Descriptors whose result went up by rendezvous are not
	// recycled: the in-flight data packet aliases their acc.
	descFree []*descriptor

	// inSync is nonzero while the synchronous component of Reduce is
	// driving progress; it attributes hook work to the right phase.
	inSync int

	// rendezvousAB enables application-bypass for rendezvous-sized
	// messages (§V-B future work); off by default, as in the paper.
	rendezvousAB bool

	// tree, when set, replaces the flat binomial shape of Reduce with a
	// topology-aware one (coll.TopoTree) on the instances treeFor names;
	// every rank of the communicator must install the same tree.
	tree *coll.TopoTree

	delay DelayPolicy

	bcast bcastState

	// traceFn, when set, receives activity spans ('R' = inside Reduce,
	// 'A' = async handler) for timeline visualization.
	traceFn func(kind byte, start, end sim.Time)

	// The wiring Reset installs on the process and its NIC, bound once
	// by NewEngine so that neither Reset nor a raised signal allocates:
	// hookFn is the Fig. 4 hook, nicSigFn the NIC's signal target, sigFn
	// the host handler it queues, and fwFn the NIC reduction firmware,
	// whose per-instance state lives in nicTab.
	hookFn   func(*gm.Packet) bool
	nicSigFn func()
	sigFn    func()
	fwFn     gm.Firmware
	nicTab   nicTable

	Metrics Metrics
}

// SetTrace installs a span callback for timeline visualization; nil
// removes it.
func (e *Engine) SetTrace(fn func(kind byte, start, end sim.Time)) { e.traceFn = fn }

// trace emits one span if tracing is on.
func (e *Engine) trace(kind byte, start, end sim.Time) {
	if e.traceFn != nil {
		e.traceFn(kind, start, end)
	}
}

// NewEngine attaches application-bypass support to pr. It allocates the
// engine's maps and binds its wiring once, then ends in Reset, which
// installs the wiring.
func NewEngine(pr *mpi.Process) *Engine {
	e := &Engine{pr: pr, nicTab: make(nicTable)}
	e.bcast.pending = make(map[bcastKey]*bcastInstance)
	e.bcast.arrived = make(map[bcastKey][]byte)
	e.hookFn = e.hook
	e.nicSigFn = e.nicSignal
	e.sigFn = e.onSignal
	e.fwFn = e.firmware
	e.Reset()
	return e
}

// Reset puts the engine in its just-built state without allocating:
// queues, metrics, broadcast state and the NIC reduction table clear
// (keeping capacity), the default delay policy is restored, and the
// wiring is installed on the process and its NIC: the Fig. 4
// pre-processing hook on the progress engine, the NIC's signal line to
// an interrupt handler on the host process, and the NIC reduction
// firmware. The descriptor pool survives the reset — pool hits never
// touch virtual time. Reset charges no virtual time, so a reused engine
// is byte-identical to a fresh one.
func (e *Engine) Reset() {
	for i := range e.descQ {
		e.descQ[i] = nil
	}
	e.descQ = e.descQ[:0]
	for i := range e.ubq {
		e.ubq[i] = nil
	}
	e.ubq = e.ubq[:0]
	e.inSync = 0
	e.rendezvousAB = false
	e.tree = nil
	e.delay = NoDelay{}
	e.bcast.active = false
	clear(e.bcast.pending)
	clear(e.bcast.arrived)
	e.traceFn = nil
	e.Metrics = Metrics{}
	clear(e.nicTab)
	e.pr.SetABHook(e.hookFn)
	nic := e.pr.NIC()
	nic.SetSignalHandler(e.nicSigFn)
	nic.SetFirmware(e.fwFn)
}

// SetDelayPolicy installs the §IV-E exit-delay heuristic.
func (e *Engine) SetDelayPolicy(p DelayPolicy) {
	if p == nil {
		p = NoDelay{}
	}
	e.delay = p
}

// SetTopoTree installs a topology-aware reduction tree (nil restores
// the flat binomial shape). Blocking world-communicator reductions
// whose root and size match the tree's use its parent/child relation
// (treeFor) — every rank of the communicator must install the same
// tree, exactly as every rank must agree on root and size.
func (e *Engine) SetTopoTree(t *coll.TopoTree) { e.tree = t }

// abMsg is an entry in the engine's own unexpected queue: a collective
// payload that matched no descriptor. Unlike the MPICH unexpected queue
// it is consumed in place, so these messages cost one copy instead of
// two (§V-A).
type abMsg struct {
	ctx     uint16
	srcRank int32
	seq     uint64
	root    int32
	data    []byte
	rts     *gm.Packet // rendezvous-mode AB: a queued large-child RTS
	at      sim.Time
}

// nicSignal is the NIC's signal target. It runs in NIC context and
// queues onSignal on the host process.
func (e *Engine) nicSignal() { e.pr.P.Interrupt(e.sigFn) }

// onSignal is the host-side signal handler. It runs on the application
// process at its next interruptible point — exactly like a Unix signal
// interrupting a compute loop — and triggers communication progress
// (Fig. 4, "AB message triggers progress").
func (e *Engine) onSignal() {
	nic := e.pr.NIC()
	if !nic.ConsumePendingSignal() {
		// The progress engine beat us to the packet and already paid
		// the trap cost; this queued delivery is stale.
		return
	}
	if !nic.HasPackets() {
		// Progress already consumed the packet (§V-C: ignored).
		e.pr.P.Spin(e.pr.CM.SignalIgnoredOvh())
		e.pr.Stats.SignalsIgnored++
		e.Metrics.SignalsIgnored++
		return
	}
	t0 := e.pr.P.Now()
	e.pr.P.Spin(e.pr.CM.SignalOvh())
	e.pr.Stats.SignalsRun++
	e.Metrics.SignalsHandled++
	e.pr.ProgressPoll()
	e.trace('A', t0, e.pr.P.Now())
}

// EnableRendezvousAB turns on the §V-B rendezvous-mode extension:
// reductions beyond the eager limit run in bypass mode too, with late
// children streamed by RTS/CTS/Data handshakes that stay on the
// signal-raising packet types. The paper left this unexplored ("due to
// the additional complexities involved in buffer management"); the
// default therefore remains the paper's fallback behaviour.
func (e *Engine) EnableRendezvousAB() { e.rendezvousAB = true }

// hook is the application-bypass pre-processing step the paper splices
// into the MPICH progress engine (Fig. 4 gray boxes, Fig. 5 logic). It
// sees every collective-typed packet before default matching. Returning
// true consumes the packet. A CollectiveRTS is a rendezvous-sized
// child's announcement (§V-B extension): the same logic, with the
// payload streamed rather than carried in the packet.
func (e *Engine) hook(pkt *gm.Packet) bool {
	rts := pkt.Type == gm.CollectiveRTS
	if !rts && mpi.KindOfCtx(pkt.Ctx) == mpi.CtxBcast {
		return e.hookBcast(pkt)
	}

	// Descriptor match: an outstanding reduction waiting on this
	// sender in this context (FIFO per sender — GM delivers in order).
	e.pr.P.Spin(e.pr.CM.QueueSearch(len(e.descQ)))
	for _, d := range e.descQ {
		if d.ctx != pkt.Ctx || !d.waitingOn(int(pkt.SrcRank)) {
			continue
		}
		if d.seq != pkt.Seq {
			panic(fmt.Sprintf("core: FIFO violation: packet seq %d from %d, descriptor seq %d",
				pkt.Seq, pkt.SrcRank, d.seq))
		}
		if rts {
			e.acceptLargeChild(d, pkt)
			return true
		}
		// Expected or late message: combined straight from the packet
		// buffer — zero host copies (§V-C).
		e.countChild()
		e.processChild(d, int(pkt.SrcRank), pkt.Data)
		return true
	}

	if int(pkt.Root) == e.pr.Rank() && mpi.KindOfCtx(pkt.Ctx) != mpi.CtxIReduce {
		// Blocking reduction: the root's behaviour is necessarily
		// synchronous; leave the packet to the default point-to-point
		// (or rendezvous) path (Fig. 4). Split-phase roots instead use
		// descriptors, so their early packets fall through to the AB
		// unexpected queue below and are drained when the root posts
		// its IReduce.
		return false
	}

	// Truly unexpected: one copy into the AB unexpected queue (§V-A);
	// an early large child queues its announcement, with no payload to
	// copy.
	m := &abMsg{ctx: pkt.Ctx, srcRank: pkt.SrcRank, seq: pkt.Seq, root: pkt.Root}
	if rts {
		m.rts = pkt
	} else {
		e.pr.P.Spin(e.pr.CM.HostCopy(len(pkt.Data)))
		e.pr.Stats.HostCopies++
		e.pr.Stats.HostCopiedBytes += uint64(len(pkt.Data))
		e.Metrics.ABCopies++
		m.data = append([]byte(nil), pkt.Data...)
	}
	m.at = e.pr.P.Now()
	e.Metrics.ABUnexpected++
	e.ubq = append(e.ubq, m)
	return true
}

// countChild counts a child combined straight from its buffer, in the
// component — Reduce's synchronous loop or the async handler — whose
// progress delivered it.
func (e *Engine) countChild() {
	e.Metrics.ZeroCopyChildren++
	if e.inSync > 0 {
		e.Metrics.SyncChildren++
	} else {
		e.Metrics.AsyncChildren++
	}
}

// acceptLargeChild pins a landing buffer for a rendezvous child and
// chains its completion into the descriptor: when the payload arrives
// it is combined straight from the pinned buffer — zero extra copies,
// in whatever context progress happens to be running.
func (e *Engine) acceptLargeChild(d *descriptor, rts *gm.Packet) {
	child := int(rts.SrcRank)
	tmp := make([]byte, rts.TotalLen)
	e.Metrics.RendezvousChildren++
	e.pr.RegisterRendezvous(rts, tmp, func() {
		e.countChild()
		e.processChild(d, child, tmp)
	})
}

// updateSignals applies the paper's enable/disable discipline: signals
// are on exactly while asynchronous work may arrive (outstanding
// descriptors, broadcast forwarding duty, or a collective rendezvous
// handshake in flight).
func (e *Engine) updateSignals() {
	if len(e.descQ) > 0 || e.bcast.active || e.pr.PendingCollectiveSends() > 0 {
		e.pr.NIC().EnableSignals()
	} else {
		e.pr.NIC().DisableSignals()
	}
}

// UBQLen reports the AB unexpected queue depth (tests and tracing).
func (e *Engine) UBQLen() int { return len(e.ubq) }

// OutstandingDescriptors reports the descriptor queue depth.
func (e *Engine) OutstandingDescriptors() int { return len(e.descQ) }
