package flow

import (
	"fmt"

	"abred/internal/fault"
	"abred/internal/gm"
	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/stats"
	"abred/internal/topo"
)

// Machine wraps a Net with the per-node machinery the packet engine
// models with goroutines and daemons: NIC packet-processing
// serialization, GM send/receive token accounting, and the expected-
// retransmission loss cost. The host clocks a rank's calls advance are
// the layer above's: each coll flow rank record keeps its own.
//
// Everything runs in scheduler context on one kernel — or, under LP
// partitioning, on one kernel per shard with every per-node array
// partitioned by the owning LP: element r is only touched by events
// running on rank r's LP (Send and token return on the source's LP,
// NIC deposit and receive gating on the destination's), so the shards
// share the arrays race-free. Per-LP mutable scalars, pools and the
// rare token-stalled send queues live in mshard. Timestamps handed to
// Send may lie in the virtual future (host chains extend past the
// current event) but never in the past.
type Machine struct {
	K   *sim.Kernel // shard 0's kernel (the only one on a 1-LP machine)
	Net *Net        // shard 0's net
	CMs []model.CostModel

	nicFree []sim.Time

	// GM token accounting. SendTokens bounds a node's in-flight sends:
	// the token is taken when the NIC injects the flow and returned when
	// the transfer completes, exactly the send-callback semantics the
	// packet engine's NIC models; sends past the allotment queue FIFO.
	// RecvTokens bounds deliveries awaiting host processing: delivery k
	// at a node stalls until the host has returned the buffer of
	// delivery k-RecvTokens (see ReleaseRecv).
	SendTokens int
	RecvTokens int

	outst    []int32
	recvPend [][]sim.Time

	lossP    float64 // per-frame drop probability (uniform rule)
	maxFrame int

	ks   []*sim.Kernel
	nets []*Net
	pmap []int32 // host -> owning LP, nil when every host is on LP 0
	sh   []mshard
	par  *Par
	fct  stats.Hist // FCTs' merge buffer on a multi-LP machine
}

// mshard is one LP's mutable scalars, msg pool and token-stalled send
// queues; indexed by the LP a rank belongs to, so concurrent windows
// never share an entry.
type mshard struct {
	hostStall uint64  // sends that waited for a send token
	recvStall uint64  // deliveries that waited for a receive token
	expRetr   float64 // expected retransmitted frames (loss model)
	mfree     []*msg
	// waitq holds the FIFO of each of the LP's ranks that has sends
	// waiting for a token, keyed by rank. A rank needs one only past
	// SendTokens sends outstanding, so the queues live here rather than
	// in a per-rank array.
	waitq map[int32]sendq
}

// sendq is one rank's FIFO of token-stalled sends, linked through
// msg.next.
type sendq struct{ h, t *msg }

// NewMachines builds the per-node layer LP-partitioned over one kernel
// per shard, with pmap assigning each rank to a shard (topo.Partition).
// A single kernel with a nil pmap is the 1-LP partition; t may be nil
// (crossbar).
func NewMachines(ks []*sim.Kernel, pmap []int32, t *topo.Topology, cms []model.CostModel, c model.Costs) *Machine {
	n := len(cms)
	m := &Machine{
		K:          ks[0],
		CMs:        cms,
		nicFree:    make([]sim.Time, n),
		SendTokens: gm.DefaultSendTokens,
		RecvTokens: gm.DefaultRecvTokens,
		outst:      make([]int32, n),
		recvPend:   make([][]sim.Time, n),
		maxFrame:   c.MaxPayload,
		ks:         ks,
		sh:         make([]mshard, len(ks)),
	}
	m.nets = NewNets(ks, pmap, t, n, c)
	m.Net = m.nets[0]
	if len(ks) > 1 {
		m.pmap = pmap
	}
	m.par = NewPar(m.nets)
	for i := range m.sh {
		m.sh[i].waitq = make(map[int32]sendq)
	}
	return m
}

// lpr returns the LP owning rank r.
func (m *Machine) lpr(r int32) int32 {
	if m.pmap == nil {
		return 0
	}
	return m.pmap[r]
}

// LPOf returns the LP whose kernel runs rank r's events: an index into
// Kernels.
func (m *Machine) LPOf(r int) int { return int(m.lpr(int32(r))) }

// Kernels returns the machine's kernels, indexed by LP. A layer above
// that schedules its own per-rank events (a spin's end, a signal
// handler) schedules them on Kernels()[LPOf(r)].
func (m *Machine) Kernels() []*sim.Kernel { return m.ks }

// Par returns the window-barrier coupling for sim.LPSet.
func (m *Machine) Par() *Par { return m.par }

// SetFaults installs the flow engine's degraded loss model from a fault
// plan: a uniform per-frame drop probability p adds each flow's
// expected go-back-N retransmission latency,
//
//	frames · p/(1-p) · RTO(hops),
//
// as deterministic extra pipeline latency (RTO matches gm's hop-scaled
// timeout: 150 µs + 25 µs per switch crossing beyond the first). This
// is an expected-value model — no RNG, no per-frame outcomes — so a
// lossy flow run is smooth where a lossy packet run is bursty; the
// cross-validation band covers the difference. Fault features that name
// individual frames or links (scripts, per-link rules, duplication,
// jitter) have no per-flow expectation worth committing to and are
// rejected.
func (m *Machine) SetFaults(fc fault.Config) error {
	if !fc.Enabled() {
		m.lossP = 0
		return nil
	}
	if len(fc.Links) > 0 || len(fc.Scripts) > 0 || fc.Dup != 0 || fc.JitterP != 0 {
		return fmt.Errorf("flow: only a uniform drop rule is modeled (got %+v)", fc)
	}
	if err := fault.CheckDrop(fc.Drop); err != nil {
		return err
	}
	m.lossP = fc.Drop
	return nil
}

// Reset returns the machine (and its Nets) to the just-built state.
func (m *Machine) Reset() {
	for i := range m.nicFree {
		m.nicFree[i] = 0
		m.outst[i] = 0
		m.recvPend[i] = m.recvPend[i][:0]
	}
	m.lossP = 0
	for i := range m.sh {
		s := &m.sh[i]
		s.hostStall, s.recvStall, s.expRetr = 0, 0, 0
		clear(s.waitq)
	}
	for _, nt := range m.nets {
		nt.Reset()
	}
}

// Tokens reports the token-accounting totals: sends stalled for a send
// token, deliveries stalled for a receive token, and the loss model's
// expected retransmitted-frame count. Summed over shards.
func (m *Machine) Tokens() (hostStalls, recvStalls uint64, expRetransmits float64) {
	for i := range m.sh {
		s := &m.sh[i]
		hostStalls += s.hostStall
		recvStalls += s.recvStall
		expRetransmits += s.expRetr
	}
	return
}

// FCTs returns the flow completion times of every LP, counted by value
// (stats.SummarizeHist summarizes them). The histogram is the machine's
// own — the Net's on one LP, a merge buffer the machine keeps on
// several — so it is valid until the next Reset or FCTs call.
func (m *Machine) FCTs() stats.Hist {
	if len(m.nets) == 1 {
		return m.Net.FCTs()
	}
	if m.fct == nil {
		m.fct = stats.Hist{}
	}
	clear(m.fct)
	for _, nt := range m.nets {
		m.fct.Merge(nt.FCTs())
	}
	return m.fct
}

// NetStats sums the per-shard substrate counters. started, delayed and
// delayTotal are exact (each flow counts once, at its source shard);
// maxActive is the sum of per-shard peaks, an upper bound on the true
// concurrent peak since the shards need not peak at the same instant.
func (m *Machine) NetStats() (started uint64, maxActive int, delayed uint64, delayTotal sim.Time) {
	for _, nt := range m.nets {
		s, ma, d, dt := nt.Stats()
		started += s
		maxActive += ma
		delayed += d
		delayTotal += dt
	}
	return
}

// frames returns the wire-frame count of a payload (gm fragments at
// MaxPayload).
func (m *Machine) frames(payload int) int {
	if payload <= m.maxFrame {
		return 1
	}
	return (payload + m.maxFrame - 1) / m.maxFrame
}

// lossLat returns the expected retransmission latency for nf frames
// crossing `switches` crossbar stages, zero on a clean fabric.
func (m *Machine) lossLat(nf, switches int) (sim.Time, float64) {
	if m.lossP == 0 {
		return 0, 0
	}
	// The exact timeout the packet engine arms on such a link.
	rto := gm.BaseRTO(switches)
	ev := float64(nf) * m.lossP / (1 - m.lossP)
	return sim.Time(ev * float64(rto)), ev
}

// msg is one in-flight Send: a pooled Runner for its NIC injection
// instant and the Handler for its own flow completion. When the flow
// crosses LPs the completion splits: FlowSrcEvent returns the send
// token on the source LP at the bottleneck-crossing time, then
// FlowEvent runs the destination side on the destination LP at the
// delivery time (the barrier between those windows orders the two).
type msg struct {
	m       *Machine
	src     int32
	dst     int32
	payload int32
	extra   sim.Time
	h       Handler
	tag     uint64
	next    *msg // the next token-stalled send of the same source
	split   bool // source side already ran via FlowSrcEvent
}

// RunEvent fires at the source NIC's injection instant: take a send
// token (or queue for one) and start the flow.
func (ms *msg) RunEvent() {
	m := ms.m
	if int(m.outst[ms.src]) >= m.SendTokens {
		sh := &m.sh[m.lpr(ms.src)]
		sh.hostStall++
		q := sh.waitq[ms.src]
		if q.t == nil {
			q.h = ms
		} else {
			q.t.next = ms
		}
		q.t = ms
		sh.waitq[ms.src] = q
		return
	}
	m.launch(ms)
}

// launch starts ms's flow, holding one of src's send tokens.
func (m *Machine) launch(ms *msg) {
	m.outst[ms.src]++
	if ms.src == ms.dst {
		// Loopback never crosses the fabric: the NIC deposits locally.
		ms.FlowEvent(0, m.kOf(ms.src).Now())
		return
	}
	wire := int(ms.payload) + gm.HeaderBytes*m.frames(int(ms.payload))
	m.nets[m.lpr(ms.src)].Start(int(ms.src), int(ms.dst), wire, ms.extra, ms, 0)
}

// kOf returns the kernel rank r's events run on.
func (m *Machine) kOf(r int32) *sim.Kernel { return m.ks[m.lpr(r)] }

// tokenDone returns src's send token and launches the next queued
// send, if any. It runs on src's LP, as RunEvent does.
func (m *Machine) tokenDone(src int32) {
	m.outst[src]--
	sh := &m.sh[m.lpr(src)]
	if len(sh.waitq) == 0 {
		return
	}
	q, ok := sh.waitq[src]
	if !ok {
		return
	}
	next := q.h
	if q.h = next.next; q.h == nil {
		delete(sh.waitq, src)
	} else {
		sh.waitq[src] = q
	}
	next.next = nil
	m.launch(next)
}

// FlowSrcEvent runs the source half of a cross-LP completion: the
// transfer has cleared its bottleneck, so the send token comes back
// and the next queued send launches — at the same virtual time the
// monolithic engine would have returned it.
func (ms *msg) FlowSrcEvent(_ uint64, _ sim.Time) {
	ms.split = true
	ms.m.tokenDone(ms.src)
}

// FlowEvent completes ms's transfer at time end: return the send token
// (unless the source half already ran), serialize through the
// destination NIC under the receive-token gate, and hand the delivery
// time to the user handler.
func (ms *msg) FlowEvent(_ uint64, end sim.Time) {
	m := ms.m
	if !ms.split {
		m.tokenDone(ms.src)
	}

	dst := int(ms.dst)
	start := end
	if m.nicFree[dst] > start {
		start = m.nicFree[dst]
	}
	if rp := m.recvPend[dst]; m.RecvTokens > 0 && len(rp) >= m.RecvTokens {
		if g := rp[len(rp)-m.RecvTokens]; g > start {
			m.sh[m.lpr(ms.dst)].recvStall++
			start = g
		}
	}
	tr := start + m.CMs[dst].NICPkt(int(ms.payload))
	m.nicFree[dst] = tr

	h, tag := ms.h, ms.tag
	ms.h = nil
	// Recycle into the executing LP's pool: a split msg migrates from
	// the source shard's pool to the destination's.
	sh := &m.sh[m.lpr(ms.dst)]
	sh.mfree = append(sh.mfree, ms)
	h.FlowEvent(tag, tr)
}

// Send transfers payload bytes from src to dst, with the NIC picking
// the message up at host time `at` (clamped to the NIC's own timeline).
// h.FlowEvent(tag, deliveredAt) fires when the destination NIC has
// deposited the message; the handler must call ReleaseRecv(dst, t) with
// the host's buffer-return time before it returns, keeping the
// receive-token ledger aligned with deliveries.
func (m *Machine) Send(at sim.Time, src, dst, payload int, h Handler, tag uint64) {
	cm := m.CMs[src]
	tn := at
	if m.nicFree[src] > tn {
		tn = m.nicFree[src]
	}
	tn += cm.NICPkt(payload)
	m.nicFree[src] = tn

	sh := &m.sh[m.lpr(int32(src))]
	var ms *msg
	if n := len(sh.mfree); n > 0 {
		ms = sh.mfree[n-1]
		sh.mfree = sh.mfree[:n-1]
	} else {
		ms = &msg{m: m}
	}
	ms.src, ms.dst = int32(src), int32(dst)
	ms.payload = int32(payload)
	ms.h, ms.tag = h, tag
	ms.extra = 0
	ms.split = false
	if m.lossP != 0 && src != dst {
		sw := 1
		if m.Net.T != nil {
			sw = m.Net.T.Hops(src, dst)
		}
		lat, ev := m.lossLat(m.frames(payload), sw)
		ms.extra = lat
		sh.expRetr += ev
	}

	k := m.kOf(int32(src))
	d := tn - k.Now()
	if d < 0 {
		panic("flow: Send in the virtual past")
	}
	k.AfterRunner(d, ms)
}

// ReleaseRecv records that dst's host returned a delivered message's
// buffer at time t — one call per delivery, in delivery order. Without
// receive tokens (RecvTokens <= 0) nothing gates a delivery, so nothing
// is recorded.
func (m *Machine) ReleaseRecv(dst int, t sim.Time) {
	tok := m.RecvTokens
	if tok <= 0 {
		return
	}
	rp := append(m.recvPend[dst], t)
	// Only the last RecvTokens entries can ever gate; prune in bulk.
	if len(rp) > 4*tok {
		rp = rp[:copy(rp, rp[len(rp)-tok:])]
	}
	m.recvPend[dst] = rp
}
