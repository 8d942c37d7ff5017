// LP partitioning for the flow engine: the max-min substrate sharded
// along topo.Pods onto sim.LPSet, mirroring the packet fabric's
// split-at-the-spine design.
//
// Each shard owns its pods' injection/ejection links and every
// inter-switch link whose subtree hangs below those pods (see
// topo.LinkOwners). Intra-LP flows never leave their shard. A flow
// whose D-mod-k route crosses the spine is split at the turn: the
// source shard runs the real flow over the climb half, the destination
// shard grows a stub over the descent half, and the two halves trade
// rate information through the LPSet window protocol:
//
//	xopen  source -> dest   flow announced; grow the stub
//	xrate  source -> dest   source's current rate; stub occupancy bound
//	xcap   dest  -> source  destination's grant: stub share + headroom
//	xdone  source -> dest   flow completed; tear down, deliver payload
//
// xopen/xrate/xcap travel exactly one conservative lookahead
// (2·(WireProp+SwitchHop)) ahead of their emission time, so a remote
// share is stale by at most one window plus the lookahead — the same
// bound the packet fabric's crossing latency provides, and the reason
// a cross flow's rate may transiently disagree between its halves.
// xdone travels at the delivery time, which exceeds the lookahead
// because a spine crossing traverses at least three switches. All
// messages merge deterministically at the barrier by (t, lp, seq), so
// multi-LP runs are reproducible for any LP count; single-LP runs
// never emit and stay byte-identical to the monolithic engine.
//
// Messages addressed to one shard at one instant are applied as a
// single batch: every state update lands first, then the union of the
// touched components is re-shared once, then completed flows deliver.
// Per-message reshares would let two shards trading rate updates
// multiply traffic every window — each apply re-emits a changed
// component's worth of rates, and a component whose halves disagree
// (distributed water-filling may oscillate between fills until a flow
// drains) turns that into an exponential message storm. Batching
// bounds a window's volley at one component sweep per barrier instant.
package flow

import (
	"sort"

	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/stats"
	"abred/internal/topo"
)

const (
	kXOpen = uint8(iota)
	kXRate
	kXCap
	kXDone
)

// xmsg is one cross-shard message, produced into the emitting shard's
// outbox during a window and delivered by Par.Exchange at the barrier.
type xmsg struct {
	t    sim.Time
	lp   int32  // emitting LP
	seq  uint64 // per-LP emission sequence; (t, lp, seq) is the merge key
	kind uint8
	dst  int32 // receiving LP
	id   int32 // flow id in the emitting shard (xcap: in the receiver)
	gen  uint32
	a, b int32 // xopen: source and destination ranks
	rate float64
	h    Handler // xdone: destination-side payload
	tag  uint64
}

// xkey addresses a stub by the source shard's (LP, flow id,
// generation). The generation keeps a recycled source id from
// colliding with a stub the old flow's xdone has not yet torn down.
type xkey struct {
	lp  int32
	id  int32
	gen uint32
}

// xdlv is a delivery deferred to the end of its batch: handlers can
// start new flows (which bump the mark epoch), so they must not run
// while the batch's seeded closure is still waiting for its reshare.
type xdlv struct {
	h   Handler
	tag uint64
}

// xbatch is the pooled Runner that applies every xmsg addressed to one
// shard at one instant.
type xbatch struct {
	nt *Net
	ms []xmsg
}

func (e *xbatch) RunEvent() {
	nt := e.nt
	now := nt.K.Now()
	nt.bumpEpoch()
	nt.cflows = nt.cflows[:0]
	for i := range e.ms {
		m := &e.ms[i]
		switch m.kind {
		case kXOpen:
			nt.applyOpen(m)
		case kXRate:
			nt.applyRate(m)
		case kXCap:
			nt.applyCap(m)
		case kXDone:
			nt.applyDone(m)
		}
		m.h = nil
	}
	if len(nt.cflows) > 0 {
		nt.reshare(now)
	}
	e.ms = e.ms[:0]
	nt.xfree = append(nt.xfree, e)
	for i := range nt.dlv {
		d := &nt.dlv[i]
		h := d.h
		d.h = nil
		h.FlowEvent(d.tag, now)
	}
	nt.dlv = nt.dlv[:0]
}

// seed marks f into the closure the batch's reshare will expand from.
func (nt *Net) seed(f *Flow) {
	if f.mark != nt.epoch {
		f.mark = nt.epoch
		nt.cflows = append(nt.cflows, f)
	}
}

// emit queues a cross-shard message on this shard's outbox.
func (nt *Net) emit(m xmsg) {
	m.lp = nt.lp
	m.seq = nt.oseq
	nt.oseq++
	nt.outbox = append(nt.outbox, m)
}

// applyOpen grows the stub half of a cross-spine flow: the descent
// links plus the ejection link, re-derived locally from the same
// deterministic route the source shard split. The stub starts
// unbounded; the xrate that every Start emits right behind its xopen
// (same barrier time, higher seq) brings the real occupancy.
func (nt *Net) applyOpen(m *xmsg) {
	f := nt.getFlow()
	f.stub = true
	f.xlp = m.lp
	f.xid = m.id
	f.xgen = m.gen
	f.links = f.links[:0]
	nt.T.Route(int(m.a), int(m.b), &nt.path)
	for i := nt.path.N / 2; i < nt.path.N; i++ {
		f.links = append(f.links, int32(nt.base)+nt.path.Links[i])
	}
	f.links = append(f.links, 2*m.b+1)

	now := nt.K.Now()
	f.rate = -1
	f.remaining = 0
	f.bytes = 0
	f.updated = now
	f.start = now
	f.lat = 0
	f.uncont = 0
	f.h = nil
	f.tag = 0
	for s, li := range f.links {
		nt.link(f, s, li)
	}
	nt.nstubs++
	nt.stubs[xkey{m.lp, m.id, m.gen}] = f.id
	nt.seed(f)
}

// applyRate updates a stub's occupancy bound to the source half's
// current rate.
func (nt *Net) applyRate(m *xmsg) {
	id, ok := nt.stubs[xkey{m.lp, m.id, m.gen}]
	if !ok {
		panic("flow: xrate for unknown stub")
	}
	f := nt.flows[id]
	if f.xcap == m.rate {
		return
	}
	f.xcap = m.rate
	nt.seed(f)
}

// applyCap updates a source flow's grant from its destination shard.
// The flow may have completed (and its id been recycled) while the
// grant was in flight; the generation check drops such strays.
func (nt *Net) applyCap(m *xmsg) {
	if int(m.id) >= len(nt.flows) {
		return
	}
	f := nt.flows[m.id]
	if f.gen != m.gen || f.h == nil || f.stub || f.xlp < 0 {
		return
	}
	if f.xcap == m.rate {
		return
	}
	f.xcap = m.rate
	nt.seed(f)
}

// applyDone tears down a stub at the flow's delivery time and defers
// the destination-side handler — which executes here, on the LP that
// owns the destination host, exactly as an intra-LP delivery would —
// to the end of the batch.
func (nt *Net) applyDone(m *xmsg) {
	k := xkey{m.lp, m.id, m.gen}
	id, ok := nt.stubs[k]
	if !ok {
		panic("flow: xdone for unknown stub")
	}
	delete(nt.stubs, k)
	f := nt.flows[id]
	for s, li := range f.links {
		nt.unlink(f, s, li)
		for ref := nt.head[li]; ref >= 0; {
			g := nt.flows[ref>>slotBits]
			nt.seed(g)
			ref = g.next[ref&(1<<slotBits-1)]
		}
	}
	nt.nstubs--
	// An earlier message this batch may have seeded the stub; zeroing
	// its mark drops it from the closure before the flow is recycled
	// (reshare skips seeds whose mark is stale).
	f.mark = 0
	nt.dlv = append(nt.dlv, xdlv{h: m.h, tag: m.tag})
	nt.putFlow(f)
}

// NewNets builds one Net shard per kernel over a shared link
// substrate. pmap assigns each host to a shard (topo.Partition);
// NewNets(ks[:1], nil, ...) degenerates to the monolithic NewNet.
func NewNets(ks []*sim.Kernel, pmap []int32, t *topo.Topology, n int, c model.Costs) []*Net {
	nts := make([]*Net, len(ks))
	nts[0] = NewNet(ks[0], t, n, c)
	if len(ks) == 1 {
		return nts
	}
	b := nts[0]
	lpOf := make([]int32, len(b.head))
	for i := 0; i < n; i++ {
		lpOf[2*i] = pmap[i]
		lpOf[2*i+1] = pmap[i]
	}
	if b.T != nil {
		copy(lpOf[b.base:], b.T.LinkOwners(pmap))
	}
	for i := range nts {
		if i > 0 {
			nts[i] = &Net{
				K: ks[i], T: b.T,
				n: b.n, base: b.base, capBns: b.capBns,
				hopLat: b.hopLat, la: b.la, maxRoute: b.maxRoute,
				head: b.head,
				fct:  stats.Hist{},
			}
		}
		nt := nts[i]
		nt.lp = int32(i)
		nt.lps = len(ks)
		nt.pmap = pmap
		nt.lpOf = lpOf
		nt.stubs = make(map[xkey]int32)
	}
	return nts
}

// Par is the flow engine's window-barrier coupling for sim.LPSet:
// Lookahead bounds how far ahead of the global minimum every shard may
// run, and Exchange drains the shard outboxes at each barrier.
type Par struct {
	nets []*Net
	xbuf []xmsg
}

// NewPar couples the given shards.
func NewPar(nets []*Net) *Par { return &Par{nets: nets} }

// Lookahead returns the conservative window bound: every cross-shard
// message is timestamped at least 2·(WireProp+SwitchHop) after its
// emission, because that is the soonest a rate change at one end of a
// spine crossing can matter at the other.
func (p *Par) Lookahead() sim.Time { return p.nets[0].la }

// Exchange merges every shard's outbox in deterministic (t, lp, seq)
// order, groups the messages into one batch per (destination, instant)
// and schedules each batch on its shard's kernel. Runs at the window
// barrier with all kernels quiescent.
func (p *Par) Exchange() {
	p.xbuf = p.xbuf[:0]
	for _, nt := range p.nets {
		for i := range nt.outbox {
			p.xbuf = append(p.xbuf, nt.outbox[i])
			nt.outbox[i].h = nil
		}
		nt.outbox = nt.outbox[:0]
	}
	if len(p.xbuf) == 0 {
		return
	}
	sort.Slice(p.xbuf, func(i, j int) bool {
		a, b := &p.xbuf[i], &p.xbuf[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.lp != b.lp {
			return a.lp < b.lp
		}
		return a.seq < b.seq
	})
	for i := 0; i < len(p.xbuf); {
		j := i + 1
		for j < len(p.xbuf) && p.xbuf[j].t == p.xbuf[i].t {
			j++
		}
		// One batch per destination within the equal-time run, keeping
		// the sorted (lp, seq) order inside each batch.
		for dst := range p.nets {
			nt := p.nets[dst]
			var e *xbatch
			for k := i; k < j; k++ {
				if int(p.xbuf[k].dst) != dst {
					continue
				}
				if e == nil {
					if n := len(nt.xfree); n > 0 {
						e = nt.xfree[n-1]
						nt.xfree = nt.xfree[:n-1]
					} else {
						e = &xbatch{nt: nt}
					}
				}
				e.ms = append(e.ms, p.xbuf[k])
				p.xbuf[k].h = nil
			}
			if e != nil {
				nt.K.ScheduleRunnerAt(p.xbuf[i].t, e)
			}
		}
		i = j
	}
}
