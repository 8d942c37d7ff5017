package sim

// event is a scheduled occurrence. Events with equal times fire in
// schedule order (seq breaks ties), which keeps the simulation
// deterministic.
//
// An event carries exactly one of three targets, checked in this order:
//
//   - proc: a parked process to resume ("wake" events — the dominant
//     kind). No closure is allocated for these; the kernel resumes the
//     process directly.
//   - run: a Runner whose RunEvent method executes in scheduler context.
//     Layers that deliver many pooled objects (the fabric's in-flight
//     frames, callback daemons) use this to stay allocation-free.
//   - fn: an arbitrary closure (Kernel.After and one-off timers).
//
// Events are pooled: once popped (or compacted away) an event goes onto
// the kernel's free list and its generation advances, so stale evrefs
// held by earlier wake sources can never touch a recycled slot.
type event struct {
	t        Time
	seq      uint64
	fn       func()
	run      Runner
	proc     *Proc
	canceled bool
	index    int    // heap index, -1 when popped
	gen      uint64 // bumped on recycle; validates evrefs
}

// Runner is an event target executed in scheduler context, the
// closure-free alternative to Kernel.After for hot paths: the scheduling
// layer keeps a pool of Runner implementations and re-arms them instead
// of allocating a fresh closure per event. RunEvent must not park (it
// has no process).
type Runner interface {
	RunEvent()
}

// evref is a cancelation handle for a scheduled event. It stays valid
// only while the event's generation matches: after the event fires (and
// its storage is recycled for a later schedule), cancel through an old
// ref is a no-op instead of a use-after-reuse bug.
type evref struct {
	ev  *event
	gen uint64
}

// valid reports whether the ref still names a live scheduled event.
func (r evref) valid() bool { return r.ev != nil && r.ev.gen == r.gen }

// eventHeap is a 4-ary min-heap ordered by (t, seq). Four children per
// node halve the tree depth of the binary container/heap it replaced,
// and the concrete *event element type avoids the interface boxing of
// heap.Push/heap.Pop — the two costs that made the old heap the top
// line of kernel profiles. Keys are unique (seq is never reused within
// a run), so pop order is the same total (t, seq) order regardless of
// heap arity.
type eventHeap []*event

// eventLess orders events by (t, seq).
func eventLess(a, b *event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// push inserts ev, sifting it up from the new leaf.
func (hp *eventHeap) push(ev *event) {
	h := append(*hp, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = ev
	ev.index = i
	*hp = h
}

// pop removes and returns the minimum event.
func (hp *eventHeap) pop() *event {
	h := *hp
	top := h[0]
	top.index = -1
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	*hp = h[:n]
	if n > 0 {
		hp.siftDown(last, 0)
	}
	return top
}

// siftDown places ev at index i, moving smaller children up (hole
// technique: ev is written once at its final slot).
func (hp *eventHeap) siftDown(ev *event, i int) {
	h := *hp
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].index = i
		i = m
	}
	h[i] = ev
	ev.index = i
}

// init establishes the heap property bottom-up (used after compaction).
func (hp *eventHeap) init() {
	h := *hp
	if len(h) < 2 {
		if len(h) == 1 {
			h[0].index = 0
		}
		return
	}
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		hp.siftDown(h[i], i)
	}
}

// maxEventPool caps the recycled-event free list so a burst-heavy
// simulation (a barrier fan-in at 1024 nodes, say) doesn't pin its peak
// event population in memory for the rest of the run; beyond the cap,
// recycled events are dropped for the GC.
const maxEventPool = 8192

// newEvent takes an event from the pool (or allocates) and enqueues it.
func (k *Kernel) newEvent(t Time) *event {
	if t < k.now {
		t = k.now
	}
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.t, ev.seq, ev.canceled = t, k.seq, false
	k.seq++
	k.events.push(ev)
	return ev
}

// schedule enqueues fn to run at time t. It may be called from scheduler
// context or from a running process.
func (k *Kernel) schedule(t Time, fn func()) evref {
	ev := k.newEvent(t)
	ev.fn = fn
	return evref{ev: ev, gen: ev.gen}
}

// scheduleWake enqueues a closure-free resume of p at time t.
func (k *Kernel) scheduleWake(t Time, p *Proc) evref {
	ev := k.newEvent(t)
	ev.proc = p
	return evref{ev: ev, gen: ev.gen}
}

// scheduleRunner enqueues r.RunEvent at time t.
func (k *Kernel) scheduleRunner(t Time, r Runner) evref {
	ev := k.newEvent(t)
	ev.run = r
	return evref{ev: ev, gen: ev.gen}
}

// cancel marks the referenced event so it will be skipped, provided the
// ref is still current. Canceled entries stay in the heap until popped
// or until enough accumulate to trigger compaction.
func (k *Kernel) cancel(r evref) {
	if !r.valid() || r.ev.canceled || r.ev.index < 0 {
		return
	}
	r.ev.canceled = true
	k.ncanceled++
	k.maybeCompact()
}

// recycle returns a popped or compacted event to the free list,
// invalidating all outstanding refs to it.
func (k *Kernel) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.run = nil
	ev.proc = nil
	if len(k.free) < maxEventPool {
		k.free = append(k.free, ev)
	}
}

// compactMin is the heap size below which compaction is never worth it.
const compactMin = 64

// maybeCompact rebuilds the heap without canceled entries once they
// outnumber the live ones. Long timeout-heavy simulations (GetTimeout)
// otherwise accumulate dead timers until their one-time pop.
// Compaction preserves the total (t, seq) order, so pop order — and with
// it the simulation — is unchanged.
func (k *Kernel) maybeCompact() {
	if len(k.events) < compactMin || k.ncanceled*2 <= len(k.events) {
		return
	}
	live := k.events[:0]
	for _, ev := range k.events {
		if ev.canceled {
			k.recycle(ev)
		} else {
			ev.index = len(live)
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(k.events); i++ {
		k.events[i] = nil
	}
	k.events = live
	k.events.init()
	k.ncanceled = 0
}
