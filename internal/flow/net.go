// Package flow implements the flow-level hybrid-fidelity engine: the
// cheap abstraction layer that simulates 65536–1M nodes behind the same
// cluster API as the packet-level kernel.
//
// Instead of per-packet events through the fabric, each logical
// transfer (a message, a collective tree edge) is one Flow with a
// source, destination, size in wire bytes and a route over topo links.
// Active flows share link bandwidth by progressive max-min fairness:
// whenever a flow starts or finishes, the fair shares of every flow in
// the affected connected component are recomputed by water-filling and
// their completion events rescheduled through the existing sim.Kernel
// (radix event queue, one sim.Timer per flow re-armed in place).
//
// What stays exact relative to the packet engine: skew draws, GM
// send/receive token accounting, reduction-tree structure, per-node
// host/NIC scalar costs, and the deterministic D-mod-k routes (a flow
// occupies exactly the links topo.Route reports for the packet path).
// What degrades: per-packet FIFO queueing becomes fluid bandwidth
// sharing, and per-packet loss becomes a per-flow expected
// retransmission latency (see Machine). The cross-validation tests in
// internal/bench pin the resulting error band on the 32–16384 envelope.
package flow

import (
	"math"

	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/stats"
	"abred/internal/topo"
)

// Handler receives flow-engine callbacks: flow deliveries and timer
// wakeups. Components dispatch on their own tag encodings, so one
// Handler implementation serves many outstanding operations without a
// closure per event.
type Handler interface {
	FlowEvent(tag uint64, at sim.Time)
}

// SrcHandler is implemented by handlers that split a flow delivery
// into a source half and a destination half when the flow crosses
// logical processes: FlowSrcEvent runs in the source shard at the
// bottleneck-crossing time (send-token return, next launch) while the
// ordinary FlowEvent is shipped to the destination shard and runs
// there at the delivery time.
type SrcHandler interface {
	Handler
	FlowSrcEvent(tag uint64, at sim.Time)
}

// slotBits packs (flow id, route slot) into one int32 list reference:
// ref = id<<slotBits | slot. Routes are at most 2 + topo.MaxHops links,
// so 6 bits of slot leave 25 bits of flow id — far beyond any
// concurrent-flow population the pool reaches.
const slotBits = 6

// Flow is one in-flight transfer. Flows are pooled; all fields are
// overwritten on reuse. A Flow is also the Runner for its own
// completion event.
//
// Under LP partitioning a flow whose route crosses the spine exists
// twice: the source shard holds the real flow (inject + up-links,
// remaining-byte accounting, completion event) and the destination
// shard holds a stub occupying the down-links and ejection. The two
// halves exchange rate bounds through the window protocol: xcap is the
// tightest rate the remote half has granted, xsent the last value
// shipped to it, and (xlp, xid, xgen) address the remote half.
type Flow struct {
	nt        *Net
	id        int32
	links     []int32 // route: inject, topo links (up then down), eject
	next      []int32 // per-slot intrusive list refs (packed id<<6|slot)
	prev      []int32 // packed ref, or -2-link when first in the list
	cslot     []int32 // per-slot index of the link in clinks; see inClosure
	rate      float64 // current fair share, bytes/ns; <0 before first fill
	remaining float64 // wire bytes not yet through the bottleneck
	updated   sim.Time
	start     sim.Time
	lat       sim.Time // constant pipeline latency added at completion
	uncont    sim.Time // uncontended transfer time, fixed at Start
	bytes     int64
	h         Handler
	tag       uint64
	done      sim.Timer // completion event, the flow its Runner
	mark      uint32    // closure-membership epoch
	gen       uint32    // bumped on recycle; guards stale cross-LP messages
	frozen    bool      // water-filling scratch
	stub      bool      // remote half of a cross-LP flow (no completion event)
	xlp       int32     // peer LP of a cross-LP flow, -1 when LP-local
	xid       int32     // stub only: flow id in the source shard
	xgen      uint32    // stub only: flow generation in the source shard
	xcap      float64   // rate bound granted by the peer shard (+Inf local)
	xsent     float64   // last rate (source) / offer (stub) shipped to peer
}

// RunEvent fires the flow's completion: the last byte has crossed the
// bottleneck. The flow leaves its links, the affected component is
// re-shared, and the handler is told the delivery time now+lat (the
// pipeline tail draining the downstream hops).
func (f *Flow) RunEvent() { f.nt.finish(f) }

// Net is the bandwidth substrate: every host's injection and ejection
// link plus the topology's inter-switch links, each with the uniform
// wire capacity, shared by max-min fairness among the flows routed over
// them.
//
// Link ids: host i injects on link 2i and ejects on link 2i+1; topo
// link l (as numbered by topo.Route) is Net link 2n+l. A Net belongs to
// one kernel and is single-threaded in scheduler context, like every
// other simulation layer.
type Net struct {
	K *sim.Kernel
	T *topo.Topology // nil or single-switch = crossbar

	n        int
	base     int     // first topo link id (= 2n)
	capBns   float64 // link capacity, bytes/ns
	hopLat   sim.Time
	maxRoute int

	// Link state, 4 bytes a link: the head of the link's flow list, a
	// packed ref of its first flow slot or -1. A link's flow count is
	// its list's length, which only a reshare needs and counts while it
	// walks the list. Under LP partitioning head is the SAME backing
	// array in every shard, partitioned by ownership: element li is only
	// ever read or written by the shard lpOf[li] belongs to, so sharing
	// it is race-free and keeps the 1M-node footprint flat in the LP
	// count.
	head []int32

	flows []*Flow // shard-local: list refs on owned links index this pool
	freef []int32
	epoch uint32
	path  topo.Path

	// water-filling scratch, reused across recomputes
	cflows []*Flow
	clinks []int32
	resid  []float64
	acnt   []int32
	capped []*Flow // unfrozen flows with a finite peer rate bound

	// Tightest-link min-heap over (residual/count, closure slot). An
	// entry is valid only while its pushed version matches lver, so
	// updates push fresh entries instead of re-heapifying in place.
	hs   []float64
	hl   []int32
	hv   []int32
	lver []int32

	// LP partitioning (zero-valued / nil in the monolithic engine).
	lp       int32
	lps      int
	pmap     []int32  // host -> owning LP
	lpOf     []int32  // link -> owning LP
	peers    []*Net   // all shards, indexed by LP
	la       sim.Time // conservative lookahead, 2·(WireProp+SwitchHop)
	stubs    map[xkey]int32
	outbox   []xmsg
	oseq     uint64
	nstubs   int
	xfree    []*xbatch
	dlv      []xdlv // deliveries deferred to the end of the current batch
	scanFill bool   // test hook: route uncapped fills to the linear scan

	active    int
	started   uint64
	maxActive int
	// Contention analogues of the packet fabric's TopoStats: flows
	// delivered later than their uncontended completion time, and the
	// total virtual time so lost.
	delayed    uint64
	delayTotal sim.Time

	fct stats.Hist // flow completion times, counted by value
}

// NewNet builds the substrate for n hosts on topology t (nil =
// crossbar) under the given cost constants.
func NewNet(k *sim.Kernel, t *topo.Topology, n int, c model.Costs) *Net {
	nt := &Net{K: k, n: n, base: 2 * n}
	nlinks := 2 * n
	nt.maxRoute = 2
	if t != nil && t.Levels() > 1 {
		nt.T = t
		nlinks += t.Links()
		nt.maxRoute = 2 + 2*(t.Levels()-1)
	}
	nt.capBns = c.WireMBps * 1e6 / 1e9
	nt.hopLat = c.WireProp + c.SwitchHop
	nt.la = 2 * nt.hopLat
	nt.head = make([]int32, nlinks)
	for i := range nt.head {
		nt.head[i] = -1
	}
	nt.fct = stats.Hist{}
	return nt
}

// Reset returns the Net to its just-built state for a cluster reuse
// run. All flows must have completed (the simulation ran to
// quiescence); pooled Flow structs and link arrays keep their capacity.
func (nt *Net) Reset() {
	if nt.active != 0 {
		panic("flow: Reset with active flows")
	}
	if nt.nstubs != 0 {
		panic("flow: Reset with live cross-LP stubs")
	}
	nt.outbox = nt.outbox[:0]
	nt.dlv = nt.dlv[:0]
	nt.oseq = 0
	nt.started = 0
	nt.maxActive = 0
	nt.delayed = 0
	nt.delayTotal = 0
	clear(nt.fct)
}

// FCTs returns the completion times (delivery minus start) of the
// flows finished since the last Reset, counted by value. The histogram
// is the Net's own, so it is valid until the next Reset.
func (nt *Net) FCTs() stats.Hist { return nt.fct }

// Stats reports flows started, the peak concurrent flow population, and
// the contention totals (flows delayed past their uncontended
// completion, and the virtual time lost).
func (nt *Net) Stats() (started uint64, maxActive int, delayed uint64, delayTotal sim.Time) {
	return nt.started, nt.maxActive, nt.delayed, nt.delayTotal
}

// RouteLinks appends the Net link ids a src->dst flow occupies, in
// traversal order (inject, up-links, down-links, eject) — the exposed
// form of the route construction Start uses, for tests that compare
// against the packet path.
func (nt *Net) RouteLinks(dst []int32, src, dstNode int) []int32 {
	dst = append(dst, int32(2*src))
	if nt.T != nil {
		nt.T.Route(src, dstNode, &nt.path)
		for i := 0; i < nt.path.N; i++ {
			dst = append(dst, int32(nt.base)+nt.path.Links[i])
		}
	}
	return append(dst, int32(2*dstNode+1))
}

// Start launches a flow of wireBytes from src to dst at the current
// virtual time. extraLat is constant latency added to the pipeline
// (the Machine's expected-retransmission loss cost); the topology
// crossing latency is computed here. h.FlowEvent(tag, deliveredAt)
// fires when the flow completes.
func (nt *Net) Start(src, dst, wireBytes int, extraLat sim.Time, h Handler, tag uint64) {
	xlp := int32(-1)
	if nt.pmap != nil {
		if d := nt.pmap[dst]; d != nt.lp {
			xlp = d
		}
	}
	f := nt.getFlow()
	f.links = f.links[:0]
	f.links = append(f.links, int32(2*src))
	switches := 1
	if nt.T != nil {
		nt.T.Route(src, dst, &nt.path)
		n := nt.path.N
		if xlp >= 0 {
			// Cross-spine flow: this shard owns only the climb half of
			// the route (all up-links hang off the source's subtrees);
			// the destination shard will grow a stub over the descent
			// half and the ejection link when the xopen lands.
			n = nt.path.N / 2
		}
		for i := 0; i < n; i++ {
			f.links = append(f.links, int32(nt.base)+nt.path.Links[i])
		}
		switches = nt.path.Switches
	}
	if xlp < 0 {
		f.links = append(f.links, int32(2*dst+1))
	}

	now := nt.K.Now()
	f.rate = -1
	f.remaining = float64(wireBytes)
	f.bytes = int64(wireBytes)
	f.updated = now
	f.start = now
	f.lat = sim.Time(switches)*nt.hopLat + extraLat
	f.uncont = sim.Time(math.Ceil(float64(wireBytes) / nt.capBns))
	f.h = h
	f.tag = tag
	if xlp >= 0 {
		f.xlp = xlp
		// Announce before any rate emission so the stub exists when
		// the first xrate applies (lower seq at the same barrier time).
		nt.emit(xmsg{t: now + nt.la, kind: kXOpen, dst: xlp,
			id: f.id, gen: f.gen, a: int32(src), b: int32(dst)})
	}

	alone := true
	for s, li := range f.links {
		nt.link(f, s, li)
		if f.next[s] >= 0 {
			alone = false
		}
	}
	nt.started++
	nt.active++
	if nt.active > nt.maxActive {
		nt.maxActive = nt.active
	}

	if alone {
		nt.setRate(f, nt.capBns, now)
		return
	}
	nt.bumpEpoch()
	nt.cflows = nt.cflows[:0]
	f.mark = nt.epoch
	nt.cflows = append(nt.cflows, f)
	nt.reshare(now)
}

// finish completes flow f: unlink, re-share the component it leaves
// behind, deliver, recycle.
func (nt *Net) finish(f *Flow) {
	now := nt.K.Now()
	nt.bumpEpoch()
	nt.cflows = nt.cflows[:0]
	needs := false
	for s, li := range f.links {
		nt.unlink(f, s, li)
		if nt.head[li] >= 0 {
			needs = true
			for ref := nt.head[li]; ref >= 0; {
				g := nt.flows[ref>>slotBits]
				if g.mark != nt.epoch {
					g.mark = nt.epoch
					nt.cflows = append(nt.cflows, g)
				}
				ref = g.next[ref&(1<<slotBits-1)]
			}
		}
	}
	nt.active--
	if needs {
		nt.reshare(now)
	}

	end := now + f.lat
	want := now - f.start
	if want > f.uncont {
		nt.delayed++
		nt.delayTotal += want - f.uncont
	}
	nt.fct[end-f.start]++
	h, tag := f.h, f.tag
	if f.xlp >= 0 {
		// Cross-LP flow: the source side (token return, next launch)
		// runs here at the bottleneck-crossing time, exactly when the
		// monolithic engine would have run it; the destination side is
		// shipped to the peer shard and lands at the delivery time —
		// end > now + la, so the message always clears the lookahead.
		if sh, ok := h.(SrcHandler); ok {
			sh.FlowSrcEvent(tag, now)
		}
		nt.emit(xmsg{t: end, kind: kXDone, dst: f.xlp,
			id: f.id, gen: f.gen, h: h, tag: tag})
		nt.putFlow(f)
		return
	}
	nt.putFlow(f)
	h.FlowEvent(tag, end)
}

// bumpEpoch advances the flow-mark epoch for the next closure
// expansion. On uint32 wraparound every surviving mark from 2³²
// reshares ago could falsely match a fresh epoch, so all pooled flow
// marks are cleared before restarting at 1. Links carry no mark (see
// inClosure).
func (nt *Net) bumpEpoch() {
	nt.epoch++
	if nt.epoch == 0 {
		for _, f := range nt.flows {
			f.mark = 0
		}
		nt.epoch = 1
	}
}

// inClosure reports whether the link under f's route slot s is already
// in the closure being expanded. reshare writes cslot on every flow
// slot of a link's list as it adds the link to clinks, so cslot and
// clinks form a sparse set: a stale cslot left by an earlier reshare —
// out of range, or naming another link's closure slot — reads as
// absent, and nothing needs clearing between reshares.
func (nt *Net) inClosure(f *Flow, s int) bool {
	c := int(f.cslot[s])
	return c < len(nt.clinks) && nt.clinks[c] == f.links[s]
}

// reshare runs exact max-min water-filling over the connected component
// seeded in nt.cflows (marked with the current epoch): expand the
// closure over shared links, then repeatedly freeze the flows of the
// tightest link at its equal share. Components are small in practice —
// a handful of flows meeting at a fan-in link — but collective fan-in
// at the largest envelopes produces components with thousands of
// links, so the tightest-link search runs on a min-heap (near-linear)
// rather than a per-round scan (quadratic).
func (nt *Net) reshare(now sim.Time) {
	nt.clinks = nt.clinks[:0]
	nt.acnt = nt.acnt[:0]
	w := 0
	for i := 0; i < len(nt.cflows); i++ {
		f := nt.cflows[i]
		if f.mark != nt.epoch {
			// Seeded earlier in a cross-LP batch, then torn down by a
			// later xdone in the same batch (mark zeroed on teardown).
			continue
		}
		nt.cflows[w] = f
		w++
		f.frozen = false
		for s, li := range f.links {
			if nt.inClosure(f, s) {
				continue
			}
			// Add the link, and on the way through its list count its
			// flows and point each of their slots at it.
			ci := int32(len(nt.clinks))
			nt.clinks = append(nt.clinks, li)
			n := int32(0)
			for ref := nt.head[li]; ref >= 0; n++ {
				g, gs := nt.flows[ref>>slotBits], ref&(1<<slotBits-1)
				g.cslot[gs] = ci
				if g.mark != nt.epoch {
					g.mark = nt.epoch
					nt.cflows = append(nt.cflows, g)
				}
				ref = g.next[gs]
			}
			nt.acnt = append(nt.acnt, n)
		}
	}
	nt.cflows = nt.cflows[:w]

	nl := len(nt.clinks)
	if cap(nt.resid) < nl {
		nt.resid = make([]float64, nl)
	}
	nt.resid = nt.resid[:nl]
	for ci := range nt.resid {
		nt.resid[ci] = nt.capBns
	}

	nt.capped = nt.capped[:0]
	if nt.lps > 1 {
		for _, f := range nt.cflows {
			if !math.IsInf(f.xcap, 1) {
				nt.capped = append(nt.capped, f)
			}
		}
	}
	if nt.scanFill && len(nt.capped) == 0 {
		nt.fillScan(now)
	} else {
		nt.fillHeap(now)
	}
	if nt.lps > 1 {
		nt.shipOffers(now)
	}
}

// fillHeap freezes the closure's flows by repeatedly taking the
// tightest constraint: the smallest per-flow share among the links
// still carrying unfrozen flows, or the smallest peer rate bound among
// the still-unfrozen capped flows, whichever is lower. Link shares
// live in a lazy min-heap — every residual/count update pushes a fresh
// (share, slot) entry and bumps the slot's version, so stale entries
// are skimmed at peek time instead of re-heapified. Selection order is
// identical to the linear scan (strictly-smaller wins, lowest closure
// slot on ties), which keeps the single-LP engine byte-identical.
func (nt *Net) fillHeap(now sim.Time) {
	nl := len(nt.clinks)
	if cap(nt.lver) < nl {
		nt.lver = make([]int32, nl)
	}
	nt.lver = nt.lver[:nl]
	nt.hs = nt.hs[:0]
	nt.hl = nt.hl[:0]
	nt.hv = nt.hv[:0]
	for ci := range nt.clinks {
		nt.lver[ci] = 0
		if nt.acnt[ci] > 0 {
			nt.hpush(nt.resid[ci]/float64(nt.acnt[ci]), int32(ci))
		}
	}

	unfrozen := len(nt.cflows)
	for unfrozen > 0 {
		best, bs := nt.hpeek()
		var cf *Flow
		w := 0
		for _, f := range nt.capped {
			if f.frozen {
				continue
			}
			nt.capped[w] = f
			w++
			if cf == nil || f.xcap < cf.xcap {
				cf = f
			}
		}
		nt.capped = nt.capped[:w]
		if cf != nil && (best < 0 || cf.xcap < bs) {
			// The peer shard's grant binds before any local link does:
			// freeze this flow at the granted rate and release the
			// rest of its local shares back into the water level.
			cf.frozen = true
			unfrozen--
			nt.setRate(cf, cf.xcap, now)
			nt.consume(cf, cf.xcap)
			continue
		}
		if best < 0 {
			// Defensive: every remaining flow's links are exhausted
			// (cannot happen — each unfrozen flow keeps its links'
			// counts positive). Freeze at full rate and stop.
			for _, f := range nt.cflows {
				if !f.frozen {
					f.frozen = true
					nt.setRate(f, nt.capBns, now)
				}
			}
			break
		}
		li := nt.clinks[best]
		for ref := nt.head[li]; ref >= 0; {
			f := nt.flows[ref>>slotBits]
			ref = f.next[ref&(1<<slotBits-1)]
			if f.frozen {
				continue
			}
			f.frozen = true
			unfrozen--
			nt.setRate(f, bs, now)
			nt.consume(f, bs)
		}
	}
}

// consume charges rate r to every link on f's route and refreshes
// their heap entries.
func (nt *Net) consume(f *Flow, r float64) {
	for _, cj := range f.cslot[:len(f.links)] {
		nt.resid[cj] -= r
		nt.acnt[cj]--
		nt.lver[cj]++
		if nt.acnt[cj] > 0 {
			nt.hpush(nt.resid[cj]/float64(nt.acnt[cj]), cj)
		}
	}
}

// fillScan is the pre-heap linear-scan water-fill, kept as the
// reference implementation for the randomized property tests and the
// BenchmarkReshare baseline (enable with nt.scanFill). It does not
// understand peer rate bounds, so capped closures always take the heap
// path.
func (nt *Net) fillScan(now sim.Time) {
	unfrozen := len(nt.cflows)
	for unfrozen > 0 {
		best := -1
		var bs float64
		for ci := range nt.clinks {
			if nt.acnt[ci] <= 0 {
				continue
			}
			s := nt.resid[ci] / float64(nt.acnt[ci])
			if best < 0 || s < bs {
				best, bs = ci, s
			}
		}
		if best < 0 {
			for _, f := range nt.cflows {
				if !f.frozen {
					f.frozen = true
					nt.setRate(f, nt.capBns, now)
				}
			}
			break
		}
		li := nt.clinks[best]
		for ref := nt.head[li]; ref >= 0; {
			f := nt.flows[ref>>slotBits]
			ref = f.next[ref&(1<<slotBits-1)]
			if f.frozen {
				continue
			}
			f.frozen = true
			unfrozen--
			nt.setRate(f, bs, now)
			for _, cj := range f.cslot[:len(f.links)] {
				nt.resid[cj] -= bs
				nt.acnt[cj]--
			}
		}
	}
}

// shipOffers tells each stub's source shard how fast the destination
// half of its flow could go: the stub's frozen share plus the smallest
// residual capacity left on its links. Offers are emitted only when
// they move, so a settled component goes quiet at the barrier.
func (nt *Net) shipOffers(now sim.Time) {
	for _, f := range nt.cflows {
		if !f.stub {
			continue
		}
		offer := math.Inf(1)
		for _, cj := range f.cslot[:len(f.links)] {
			if r := nt.resid[cj]; r < offer {
				offer = r
			}
		}
		offer += f.rate
		if offer != f.xsent {
			f.xsent = offer
			nt.emit(xmsg{t: now + nt.la, kind: kXCap, dst: f.xlp,
				id: f.xid, gen: f.xgen, rate: offer})
		}
	}
}

// hless orders heap entries by (share, closure slot): the scan's
// "first strictly smaller" rule picks the lowest slot among equal
// minima, and the heap must agree for byte-identical freeze order.
func (nt *Net) hless(i, j int) bool {
	if nt.hs[i] != nt.hs[j] {
		return nt.hs[i] < nt.hs[j]
	}
	return nt.hl[i] < nt.hl[j]
}

func (nt *Net) hswap(i, j int) {
	nt.hs[i], nt.hs[j] = nt.hs[j], nt.hs[i]
	nt.hl[i], nt.hl[j] = nt.hl[j], nt.hl[i]
	nt.hv[i], nt.hv[j] = nt.hv[j], nt.hv[i]
}

// hpush records the current share of closure slot ci.
func (nt *Net) hpush(s float64, ci int32) {
	nt.hs = append(nt.hs, s)
	nt.hl = append(nt.hl, ci)
	nt.hv = append(nt.hv, nt.lver[ci])
	for i := len(nt.hs) - 1; i > 0; {
		p := (i - 1) / 2
		if !nt.hless(i, p) {
			return
		}
		nt.hswap(i, p)
		i = p
	}
}

// hpeek skims stale entries off the top and returns the tightest live
// (slot, share), or (-1, 0) when no link carries unfrozen flows. The
// live top is left in place: a cap-bound freeze leaves it valid, and a
// link-round freeze invalidates it through consume's version bumps.
func (nt *Net) hpeek() (int, float64) {
	for len(nt.hs) > 0 {
		ci := nt.hl[0]
		if nt.hv[0] == nt.lver[ci] {
			return int(ci), nt.hs[0]
		}
		nt.hpop()
	}
	return -1, 0
}

func (nt *Net) hpop() {
	n := len(nt.hs) - 1
	nt.hswap(0, n)
	nt.hs = nt.hs[:n]
	nt.hl = nt.hl[:n]
	nt.hv = nt.hv[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && nt.hless(c+1, c) {
			c++
		}
		if !nt.hless(c, i) {
			return
		}
		nt.hswap(i, c)
		i = c
	}
}

// setRate advances f's remaining bytes to now at the old rate, applies
// the new rate, and reschedules the completion event if the rate moved.
// Stubs carry no bytes and no completion event — their rate is pure
// occupancy on the destination half's links. A cross-LP source flow
// ships every rate move to its stub so the peer shard's occupancy
// tracks it within one lookahead window.
func (nt *Net) setRate(f *Flow, r float64, now sim.Time) {
	if f.rate == r {
		return
	}
	if f.stub {
		f.rate = r
		f.updated = now
		return
	}
	if f.rate > 0 {
		f.remaining -= float64(now-f.updated) * f.rate
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	f.updated = now
	f.rate = r
	f.done.Set(nt.K.Now() + sim.Time(math.Ceil(f.remaining/r)))
	if f.xlp >= 0 && f.rate != f.xsent {
		f.xsent = f.rate
		nt.emit(xmsg{t: now + nt.la, kind: kXRate, dst: f.xlp,
			id: f.id, gen: f.gen, rate: f.rate})
	}
}

// link inserts f's slot s at the head of link li's flow list.
func (nt *Net) link(f *Flow, s int, li int32) {
	old := nt.head[li]
	ref := f.id<<slotBits | int32(s)
	f.next[s] = old
	f.prev[s] = -2 - li
	if old >= 0 {
		g := nt.flows[old>>slotBits]
		g.prev[old&(1<<slotBits-1)] = ref
	}
	nt.head[li] = ref
}

// unlink removes f's slot s from link li's flow list.
func (nt *Net) unlink(f *Flow, s int, li int32) {
	nx, pv := f.next[s], f.prev[s]
	if pv <= -2 {
		nt.head[-2-pv] = nx
	} else {
		g := nt.flows[pv>>slotBits]
		g.next[pv&(1<<slotBits-1)] = nx
	}
	if nx >= 0 {
		g := nt.flows[nx>>slotBits]
		g.prev[nx&(1<<slotBits-1)] = pv
	}
}

// getFlow takes a Flow from the pool, allocating its four route-sized
// slices, one backing array, on first use.
func (nt *Net) getFlow() *Flow {
	var f *Flow
	if n := len(nt.freef); n > 0 {
		id := nt.freef[n-1]
		nt.freef = nt.freef[:n-1]
		f = nt.flows[id]
	} else {
		r := nt.maxRoute
		buf := make([]int32, 4*r)
		f = &Flow{
			nt:    nt,
			id:    int32(len(nt.flows)),
			links: buf[0:0:r],
			next:  buf[r : 2*r : 2*r],
			prev:  buf[2*r : 3*r : 3*r],
			cslot: buf[3*r:],
		}
		f.done.Init(nt.K, f)
		nt.flows = append(nt.flows, f)
	}
	f.stub = false
	f.xlp = -1
	f.xcap = math.Inf(1)
	f.xsent = -1
	return f
}

// putFlow recycles a completed flow. The generation bump invalidates
// any cross-LP message still in flight addressed to this id.
func (nt *Net) putFlow(f *Flow) {
	f.h = nil
	f.gen++
	nt.freef = append(nt.freef, f.id)
}
