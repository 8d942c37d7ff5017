// Package fabric models the Myrinet-2000 interconnect: full-duplex links
// from every node into a central cut-through crossbar switch.
//
// The model charges, per frame,
//
//	serialization on the source link (2 Gb/s) +
//	cable propagation + one switch hop
//
// and serializes frames on both the source's injection link and the
// destination's ejection link, which yields the FIFO delivery order GM
// guarantees per (source, destination) pair — the property the paper's
// late-message matching relies on (§IV-D). On the default single
// crossbar, switch-internal contention is not modeled; with the paper's
// ≤1 KB reduction messages one crossbar is never the bottleneck.
//
// SetTopology replaces the single crossbar with a multi-stage Clos
// (internal/topo): frames then follow deterministic routed paths, pay
// cable propagation plus a switch stage per crossing, and contend FIFO
// at every shared inter-switch egress port. The crossbar configuration
// never takes that branch and stays byte-identical to the historical
// model.
package fabric

import (
	"fmt"
	"sort"

	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/topo"
)

// Frame is one message on the wire. Payload is opaque to the fabric.
type Frame struct {
	Src, Dst int
	Size     int // bytes on the wire, including headers
	Payload  any
}

// Verdict is one frame's fate on a faulty fabric. The zero Verdict is a
// clean traversal.
type Verdict struct {
	Drop  bool     // frame is lost in the switch, never delivered
	Dup   bool     // a duplicate copy is also delivered
	Delay sim.Time // extra delivery latency (reorder jitter); does not
	// hold the ejection link, so later frames can overtake
}

// Injector decides per-frame faults. Judge runs once per Send, in
// scheduler context, and must be deterministic given the fabric's call
// sequence (draw randomness from a dedicated seeded stream).
type Injector interface {
	Judge(src, dst int) Verdict
}

// Fabric connects n nodes through one switch.
type Fabric struct {
	costs     model.Costs
	nsPerByte float64 // serialization cost per byte, hoisted from the per-frame path
	sinks     []func(Frame)

	injectFree []sim.Time // source link busy-until
	ejectFree  []sim.Time // destination link busy-until

	// Multi-stage routing, nil for the single crossbar: frames then
	// traverse topo's routed links, each with its own FIFO egress queue
	// in linkFree.
	topo     *topo.Topology
	linkFree []sim.Time // inter-switch link busy-until, indexed by link id

	// Logical-process partition (SetPartition). pmap maps node -> LP; nil
	// puts every node on shard 0, the one shard New builds. shards hold
	// each LP's kernel and its private counters, pools and cross-LP
	// outbox, so concurrent windows never write shared fabric state. Link
	// and port occupancy arrays stay shared but are partitioned by
	// ownership: injectFree[src], up-links and a cross-route's outbox
	// belong to the source LP; down-links, ejectFree[dst] and delivery
	// belong to the destination LP, reached only through the barrier
	// exchange.
	pmap   []int32
	shards []lpShard
	xbuf   []xmsg // exchange scratch: all shards' outboxes, merge-sorted

	// Reown, when non-nil, transfers ownership of a cross-LP frame's
	// payload to its destination at exchange time (pooled payloads must
	// never recycle across LPs). Installed at cluster construction; a
	// construction-time property like the topology, surviving Reset.
	Reown func(payload any, dst int)

	// OnHop observes each inter-switch link occupancy of a routed frame:
	// the frame holds link for [start, end). Never called on a crossbar.
	OnHop func(fr Frame, link int32, start, end sim.Time)

	// OnDrop observes frames the injector discards, so the owner can
	// recycle pooled payloads that will never reach a sink.
	OnDrop func(Frame)
	// ClonePayload deep-copies a payload for duplicated frames. Without
	// it the duplicate shares the original's Payload pointer — unsafe
	// when sinks recycle payloads into pools after consuming them.
	ClonePayload func(any) any
}

// New builds a fabric for n nodes, all on one LP shard driven by k.
func New(k *sim.Kernel, n int, costs model.Costs) *Fabric {
	return &Fabric{
		shards:     []lpShard{{k: k}},
		costs:      costs,
		nsPerByte:  float64(sim.Time(1e9)) / (costs.WireMBps * 1e6),
		sinks:      make([]func(Frame), n),
		injectFree: make([]sim.Time, n),
		ejectFree:  make([]sim.Time, n),
	}
}

// Reset returns the fabric to its just-built state for a cluster reuse
// cycle: link occupancy, counters and hooks clear, while the node sinks
// registered by Connect and the delivery-record pool survive. Any frame
// still in flight was already discarded by the kernel reset that
// precedes this call; its delivery record is simply lost from the pool.
func (f *Fabric) Reset() {
	for i := range f.injectFree {
		f.injectFree[i] = 0
		f.ejectFree[i] = 0
	}
	for i := range f.linkFree {
		f.linkFree[i] = 0
	}
	f.OnHop = nil
	f.OnDrop = nil
	f.ClonePayload = nil
	for i := range f.shards {
		sh := &f.shards[i]
		sh.inject = nil
		sh.frames, sh.bytes, sh.dropped, sh.duplicated = 0, 0, 0, 0
		sh.linkWaits, sh.linkWaitTime = 0, 0
		for j := range sh.outbox {
			sh.outbox[j] = xmsg{}
		}
		sh.outbox = sh.outbox[:0]
		sh.seq = 0
	}
}

// SetTopology installs a multi-stage topology. A nil topology, or one
// with no inter-switch links (crossbar; a fat-tree or leaf/spine small
// enough to fit one switch), leaves the fabric on the original
// single-crossbar path. The topology is a construction-time property
// and survives Reset, like the cost table.
func (f *Fabric) SetTopology(t *topo.Topology) {
	if t == nil || t.Links() == 0 {
		f.topo = nil
		f.linkFree = nil
		return
	}
	if t.Nodes() != len(f.sinks) {
		panic(fmt.Sprintf("fabric: topology for %d nodes on a %d-node fabric",
			t.Nodes(), len(f.sinks)))
	}
	f.topo = t
	f.linkFree = make([]sim.Time, t.Links())
}

// Hops returns the number of switch crossings a frame src -> dst takes:
// always 1 on the crossbar (and on loopback), 2a+1 through a routed
// topology. The GM reliability layer scales its per-link RTO by this.
func (f *Fabric) Hops(src, dst int) int {
	if f.topo == nil || src == dst {
		return 1
	}
	return f.topo.Hops(src, dst)
}

// TopoStats reports inter-switch link contention on a routed topology:
// how many link occupancies had to wait for a busy link and the total
// time so spent. Both zero on the crossbar.
func (f *Fabric) TopoStats() (waits uint64, waitTime sim.Time) {
	for i := range f.shards {
		waits += f.shards[i].linkWaits
		waitTime += f.shards[i].linkWaitTime
	}
	return waits, waitTime
}

// delivery is one frame in flight: a pooled sim.Runner, so scheduling a
// delivery allocates nothing in steady state (the old closure-per-frame
// was two heap allocations: the closure and the escaped frame). sh is
// the destination's LP shard, whose pool the record returns to.
type delivery struct {
	f  *Fabric
	sh *lpShard
	fr Frame
}

// RunEvent delivers the frame at its arrival time (scheduler context).
func (d *delivery) RunEvent() {
	f, fr := d.f, d.fr
	// Recycle before invoking the sink: the sink may send a new frame,
	// which can then reuse this record.
	d.fr = Frame{}
	d.sh.dfree = append(d.sh.dfree, d)
	f.sinks[fr.Dst](fr)
}

// lpShard is one LP's slice of the fabric: its kernel, fault injector,
// counters, pooled in-flight records and the outbox collecting this
// window's cross-LP sends. All fields are touched only by the owning
// LP's goroutine during a window, and only by the coordinator (via
// Exchange / Stats) between windows.
type lpShard struct {
	k      *sim.Kernel
	lp     int32    // this shard's index, the merge key's middle term
	inject Injector // consulted once per Send when non-nil

	frames       uint64
	bytes        uint64
	dropped      uint64
	duplicated   uint64
	linkWaits    uint64   // routed frames that blocked on a busy inter-switch link
	linkWaitTime sim.Time // total time spent so blocked

	dfree  []*delivery // recycled in-flight frame records
	cfree  []*crossing
	outbox []xmsg
	seq    uint64 // per-shard cross-LP send counter, part of the merge key
}

// xmsg is one cross-LP frame at its handoff point: the head has cleared
// the source pod's up-links and is about to enter the destination pod's
// first down-link at time t. (lp, seq) complete the deterministic merge
// key — two handoffs at the same instant order by source LP, then by
// that LP's send sequence.
type xmsg struct {
	t     sim.Time
	fr    Frame
	ser   sim.Time
	extra sim.Time
	lp    int32
	seq   uint64
}

// crossing resumes a cross-LP frame on its destination LP: a pooled
// Runner scheduled at the handoff time, which walks the down-links and
// charges the ejection port exactly as an intra-LP walk would have at
// that same instant.
type crossing struct {
	f     *Fabric
	sh    *lpShard // destination shard
	fr    Frame
	ser   sim.Time
	extra sim.Time
}

// RunEvent continues the traversal at the handoff time (dst scheduler
// context).
func (c *crossing) RunEvent() {
	f, sh := c.f, c.sh
	fr, ser, extra := c.fr, c.ser, c.extra
	c.fr = Frame{}
	sh.cfree = append(sh.cfree, c)

	var p topo.Path
	f.topo.Route(fr.Src, fr.Dst, &p)
	head := f.walk(sh, fr, &p, p.N/2, p.N, sh.k.Now(), ser)
	f.finishEject(sh, fr, head, ser, extra)
}

// Connect registers the delivery callback for node id. The callback runs
// in scheduler context at the frame's arrival time; it must not park.
func (f *Fabric) Connect(id int, sink func(Frame)) {
	if f.sinks[id] != nil {
		panic(fmt.Sprintf("fabric: node %d connected twice", id))
	}
	f.sinks[id] = sink
}

// serialize returns the link occupancy of n bytes at 2 Gb/s.
func (f *Fabric) serialize(n int) sim.Time {
	return sim.Time(f.nsPerByte * float64(n))
}

// lpOf returns the LP shard that owns node.
func (f *Fabric) lpOf(node int) int32 {
	if f.pmap == nil {
		return 0
	}
	return f.pmap[node]
}

// Send injects a frame. Delivery is scheduled for
// max(now, injection-link free) + serialization + propagation + switch
// hop, further delayed if the destination's ejection link is busy: the
// frame's head waits for the link, then the frame serializes onto it,
// so N senders to one node contend for the ejection link's bandwidth.
// All state Send mutates is either owned by the source LP (injection
// link, up-links, shard counters) or reached through the handoff
// (everything at the destination).
func (f *Fabric) Send(frame Frame) {
	if frame.Src < 0 || frame.Src >= len(f.sinks) || frame.Dst < 0 || frame.Dst >= len(f.sinks) {
		panic(fmt.Sprintf("fabric: bad route %d -> %d", frame.Src, frame.Dst))
	}
	if f.sinks[frame.Dst] == nil {
		panic(fmt.Sprintf("fabric: node %d not connected", frame.Dst))
	}
	sh := &f.shards[f.lpOf(frame.Src)]
	now := sh.k.Now()

	depart := now
	if f.injectFree[frame.Src] > depart {
		depart = f.injectFree[frame.Src]
	}
	ser := f.serialize(frame.Size)
	depart += ser
	f.injectFree[frame.Src] = depart

	sh.frames++
	sh.bytes += uint64(frame.Size)

	var v Verdict
	if sh.inject != nil {
		v = sh.inject.Judge(frame.Src, frame.Dst)
		if v.Drop {
			// The frame occupied the injection link but dies in the
			// switch: no ejection occupancy, no delivery.
			sh.dropped++
			if f.OnDrop != nil {
				f.OnDrop(frame)
			}
			return
		}
	}
	f.eject(sh, frame, depart, ser, v.Delay)
	if v.Dup {
		dup := frame
		if f.ClonePayload != nil {
			dup.Payload = f.ClonePayload(frame.Payload)
		}
		sh.duplicated++
		f.eject(sh, dup, depart, ser, v.Delay)
	}
}

// eject walks the frame's head as far as the source LP owns it. The
// head reaches the switch ser before its injection finished, plus the
// host cable's propagation and one switch hop (zero on loopback); on a
// routed topology it then walks the inter-switch links. An intra-LP
// frame goes on to the ejection link; a cross-LP frame walks only its
// up-links (source-pod property) and parks in the shard outbox at the
// instant its head would enter the first down-link, to be resumed on
// the destination LP at that time via Exchange.
func (f *Fabric) eject(sh *lpShard, frame Frame, depart, ser, extra sim.Time) {
	head := depart - ser
	if frame.Src != frame.Dst {
		head += f.costs.WireProp + f.costs.SwitchHop
		if f.topo != nil {
			var p topo.Path
			f.topo.Route(frame.Src, frame.Dst, &p)
			if f.lpOf(frame.Dst) != sh.lp {
				head = f.walk(sh, frame, &p, 0, p.N/2, head, ser)
				sh.outbox = append(sh.outbox, xmsg{t: head, fr: frame, ser: ser,
					extra: extra, lp: sh.lp, seq: sh.seq})
				sh.seq++
				return
			}
			head = f.walk(sh, frame, &p, 0, p.N, head, ser)
		}
	}
	f.finishEject(sh, frame, head, ser, extra)
}

// walk moves the frame's head through routed links p.Links[lo:hi],
// all owned by sh's LP, and returns the head's time past the last one.
// Each link is an egress port with a FIFO queue: the head waits until
// the link frees, holds it for one serialization (cut-through — the
// tail streams behind the head, so a switch forwards after one header,
// not one full frame), and pays cable propagation plus a crossbar stage
// per crossing. The host cable into the leaf switch is not in p — the
// injection link already serialized it — so eject charges only its
// latency. With zero routed links this reduces exactly to the
// crossbar's prop + hop charge.
func (f *Fabric) walk(sh *lpShard, frame Frame, p *topo.Path, lo, hi int, head, ser sim.Time) sim.Time {
	for i := lo; i < hi; i++ {
		li := p.Links[i]
		if free := f.linkFree[li]; free > head {
			sh.linkWaits++
			sh.linkWaitTime += free - head
			head = free
		}
		end := head + ser
		f.linkFree[li] = end
		if f.OnHop != nil {
			f.OnHop(frame, li, head, end)
		}
		head += f.costs.WireProp + f.costs.SwitchHop
	}
	return head
}

// SetPartition installs a logical-process partition: pmap maps each
// node to an LP in [0, len(ks)), and ks[i] is LP i's kernel. With one
// kernel pmap may be nil: every node is on LP 0, as New leaves it. More
// than one LP requires a routed topology whose pod boundaries pmap
// follows (see topo.Partition): the conservative handoff relies on
// every inter-LP route crossing the full climb, so its up-links belong
// to the source pod and its down-links to the destination pod. The
// partition is a construction-time property and survives Reset. The
// trace hook OnHop fires on LP goroutines when partitioned; it is meant
// for single-LP diagnostics.
func (f *Fabric) SetPartition(pmap []int32, ks []*sim.Kernel) {
	if len(ks) > 1 && f.topo == nil {
		panic("fabric: partition requires a routed topology")
	}
	if len(pmap) != len(f.sinks) && (pmap != nil || len(ks) != 1) {
		panic(fmt.Sprintf("fabric: partition map for %d nodes over %d LPs on a %d-node fabric",
			len(pmap), len(ks), len(f.sinks)))
	}
	f.pmap = pmap
	f.shards = make([]lpShard, len(ks))
	for i := range f.shards {
		f.shards[i].k, f.shards[i].lp = ks[i], int32(i)
	}
}

// SetInjectors installs one fault injector per LP shard; a nil entry
// leaves that shard's sends unjudged, allocation-free and byte-identical
// to a fault-free fabric. Shards must not share one injector: Judge
// mutates stream state, and every send on a link (src, dst) originates
// on LP(src), so a per-LP plan still sees each link's complete frame
// sequence in order.
func (f *Fabric) SetInjectors(injs []Injector) {
	if len(injs) != len(f.shards) {
		panic(fmt.Sprintf("fabric: %d injectors for %d LP shards", len(injs), len(f.shards)))
	}
	for i := range f.shards {
		f.shards[i].inject = injs[i]
	}
}

// Lookahead returns the minimum virtual-time distance between a
// cross-LP send and its first effect on the destination pod: a
// cross-pod frame's head pays at least the host cable into its leaf
// plus one up-link crossing — two (propagation + switch-stage) charges
// — before touching any destination-owned link, so conservative windows
// of this width are safe.
func (f *Fabric) Lookahead() sim.Time {
	return 2 * (f.costs.WireProp + f.costs.SwitchHop)
}

// MaxHops returns the largest switch-crossing count Hops can report on
// this fabric — the bound reliability uses to size hop-indexed tables.
func (f *Fabric) MaxHops() int {
	if f.topo == nil {
		return 1
	}
	return 2*(f.topo.Levels()-1) + 1
}

// finishEject charges the destination's ejection link and schedules
// delivery on the destination LP's kernel, from that shard's pools.
func (f *Fabric) finishEject(sh *lpShard, frame Frame, head, ser, extra sim.Time) {
	if f.ejectFree[frame.Dst] > head {
		head = f.ejectFree[frame.Dst]
	}
	arrive := head + ser
	f.ejectFree[frame.Dst] = arrive

	var dl *delivery
	if n := len(sh.dfree); n > 0 {
		dl = sh.dfree[n-1]
		sh.dfree[n-1] = nil
		sh.dfree = sh.dfree[:n-1]
	} else {
		dl = &delivery{f: f, sh: sh}
	}
	dl.fr = frame
	sh.k.AfterRunner(arrive+extra-sh.k.Now(), dl)
}

// Exchange delivers the cross-LP frames the last window produced. It
// runs at the window barrier with every LP quiescent: all outboxes are
// merged and sorted by (handoff time, source LP, send sequence) — a key
// that depends only on virtual execution, never on goroutine
// interleaving — then each frame's payload is re-owned to its
// destination and a crossing is scheduled on the destination kernel at
// the handoff time. Scheduling in sorted order makes the destination's
// event-sequence assignment deterministic, which pins the relative
// order of same-instant arrivals from different LPs.
func (f *Fabric) Exchange() {
	f.xbuf = f.xbuf[:0]
	for i := range f.shards {
		sh := &f.shards[i]
		f.xbuf = append(f.xbuf, sh.outbox...)
		for j := range sh.outbox {
			sh.outbox[j] = xmsg{}
		}
		sh.outbox = sh.outbox[:0]
	}
	sort.Slice(f.xbuf, func(a, b int) bool {
		x, y := &f.xbuf[a], &f.xbuf[b]
		if x.t != y.t {
			return x.t < y.t
		}
		if x.lp != y.lp {
			return x.lp < y.lp
		}
		return x.seq < y.seq
	})
	for i := range f.xbuf {
		m := &f.xbuf[i]
		if f.Reown != nil {
			f.Reown(m.fr.Payload, m.fr.Dst)
		}
		sh := &f.shards[f.pmap[m.fr.Dst]]
		var c *crossing
		if n := len(sh.cfree); n > 0 {
			c = sh.cfree[n-1]
			sh.cfree[n-1] = nil
			sh.cfree = sh.cfree[:n-1]
		} else {
			c = &crossing{f: f, sh: sh}
		}
		c.fr, c.ser, c.extra = m.fr, m.ser, m.extra
		sh.k.ScheduleRunnerAt(m.t, c)
		m.fr = Frame{}
	}
}

// Stats reports total frames and bytes injected so far, summed across
// LP shards.
func (f *Fabric) Stats() (frames, bytes uint64) {
	for i := range f.shards {
		frames += f.shards[i].frames
		bytes += f.shards[i].bytes
	}
	return frames, bytes
}

// FaultStats reports frames the injectors dropped or duplicated, summed
// across LP shards.
func (f *Fabric) FaultStats() (dropped, duplicated uint64) {
	for i := range f.shards {
		dropped += f.shards[i].dropped
		duplicated += f.shards[i].duplicated
	}
	return dropped, duplicated
}
