package sim

import "math/bits"

// event is a scheduled occurrence. Its time and tie-break sequence
// number live in the queue entry that holds it (see entry), not here:
// ordering the queue never dereferences an event.
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
// Events are pooled: every pop is followed at once by recycle, which puts
// the event on the kernel's free list and advances its generation, so an
// evref whose generation still matches names an event in the queue, and
// stale evrefs held by earlier wake sources can never touch a recycled
// slot.
type event struct {
	fn       func()
	run      Runner
	proc     *Proc
	gen      uint64 // bumped on recycle; validates evrefs
	canceled bool
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

// key orders the queue. Events with equal times fire in schedule order
// (seq breaks ties), which keeps the simulation deterministic.
type key struct {
	t   Time
	seq uint64
}

// less orders keys by (t, seq).
func (a key) less(b key) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// entry is a scheduled event as the queue holds it: the 128-bit key
// beside the event.
type entry struct {
	key
	ev *event
}

// chunkLen entries and a chunk's two header words fill the 768-byte
// size class exactly.
const chunkLen = 31

// chunk is a block of one bucket's entries. A bucket is a list of
// chunks, the head the only one that takes new entries.
type chunk struct {
	next *chunk
	n    int
	e    [chunkLen]entry
}

// eventQueue is a radix heap over the key (t, seq): every entry sits in
// the bucket named by the highest bit in which its key differs from
// last, the key of the last minimum taken. A 128-bit mask of the
// non-empty buckets finds the lowest one, the minimum once taken sits in
// top, and the chunks of every bucket come from one free list, so the
// queue's memory follows its length. Keys are unique (seq never repeats
// within a run), so pops come out in the total (t, seq) order whatever
// the buckets hold. Keys are never negative: newEvent clamps t to the
// clock. DESIGN §4 gives the argument in full.
type eventQueue struct {
	top     entry     // the minimum, once taken from its bucket; top.ev == nil until then
	last    key       // the last minimum taken
	n       int       // entries, top included
	mask    [2]uint64 // bit b set: bucket b is non-empty
	buckets [128]*chunk
	free    *chunk // spare chunks, linked through next
}

// len returns the number of queued entries, canceled ones included.
func (q *eventQueue) len() int { return q.n }

// bucketOf returns the bucket of k: the index of the highest bit in
// which (k.t, k.seq) differs from last, t the high word.
func (q *eventQueue) bucketOf(k key) int {
	if x := uint64(k.t ^ q.last.t); x != 0 {
		return 63 + bits.Len64(x)
	}
	return bits.Len64(k.seq^q.last.seq) - 1
}

// push inserts e. Its key is normally above last: last is normally the
// event that ran last, newEvent clamps t to its time, and seq only
// grows. The exception goes to lower.
func (q *eventQueue) push(e entry) {
	q.n++
	switch {
	case q.n == 1:
		q.top, q.last = e, e.key
	case e.less(q.last):
		q.lower(e)
	default:
		q.put(q.bucketOf(e.key), e)
	}
}

// lower inserts e below last. That happens only after a minimum was
// taken without being run: the LP horizon check peeked an event at or
// past the horizon and a cross-LP arrival then landed before it, or
// NextEventTime skimmed a canceled entry later than the clock and an
// event was then scheduled before it. With j = bucketOf(e), every key in
// a bucket below j, and last itself, agrees with e above bit j and has
// bit j set where e has it clear, so all of them belong in bucket j
// under the new last e. Bucket j itself is empty (last has bit j set, so
// a key that first differs from it there is below it), and the buckets
// above j are the same under e as under last. So the lower
// chunk lists splice into j, the old minimum follows, and e becomes the
// minimum.
func (q *eventQueue) lower(e entry) {
	j := q.bucketOf(e.key)
	var list *chunk
	for b := 0; b < j; b++ {
		if q.buckets[b] != nil {
			c := q.take(b)
			tail := c
			for tail.next != nil {
				tail = tail.next
			}
			tail.next = list
			list = c
		}
	}
	if list != nil {
		q.buckets[j] = list
		q.mask[j>>6] |= 1 << (j & 63)
	}
	if q.top.ev != nil {
		q.put(j, q.top)
	}
	q.top, q.last = e, e.key
}

// put appends e to bucket b.
func (q *eventQueue) put(b int, e entry) {
	c := q.buckets[b]
	if c == nil || c.n == chunkLen {
		if c == nil {
			q.mask[b>>6] |= 1 << (b & 63)
		}
		if c = q.free; c != nil {
			q.free = c.next
		} else {
			c = new(chunk)
		}
		c.next, c.n = q.buckets[b], 0
		q.buckets[b] = c
	}
	c.e[c.n] = e
	c.n++
}

// take detaches bucket b's chunk list.
func (q *eventQueue) take(b int) *chunk {
	c := q.buckets[b]
	q.buckets[b] = nil
	q.mask[b>>6] &^= 1 << (b & 63)
	return c
}

// release returns c, whose entries have been read, to the free list and
// gives back the chunk that followed it.
func (q *eventQueue) release(c *chunk) *chunk {
	next := c.next
	clear(c.e[:c.n]) // a free chunk pins no event
	c.next, c.n = q.free, 0
	q.free = c
	return next
}

// settle takes the minimum into top. The lowest non-empty bucket holds
// it; its key becomes last, and the rest of the bucket moves to lower
// buckets, since each of its keys agrees with the new last in every bit
// from the bucket's up.
func (q *eventQueue) settle() {
	b := bits.TrailingZeros64(q.mask[0])
	if b == 64 {
		b += bits.TrailingZeros64(q.mask[1])
	}
	list := q.take(b)
	m := list.e[0]
	for c := list; c != nil; c = c.next {
		for i := range c.e[:c.n] {
			if c.e[i].less(m.key) {
				m = c.e[i]
			}
		}
	}
	q.last = m.key
	for c := list; c != nil; c = q.release(c) {
		for i := range c.e[:c.n] {
			if e := &c.e[i]; e.seq != m.seq {
				q.put(q.bucketOf(e.key), *e)
			}
		}
	}
	q.top = m
}

// peek returns the minimum entry, leaving it queued. The queue must not
// be empty.
func (q *eventQueue) peek() *entry {
	if q.top.ev == nil {
		q.settle()
	}
	return &q.top
}

// pop removes and returns the minimum entry. The queue must not be
// empty.
func (q *eventQueue) pop() entry {
	if q.top.ev == nil {
		q.settle()
	}
	e := q.top
	q.top = entry{}
	q.n--
	return e
}

// maxEventPool caps the recycled-event free list so a burst-heavy
// simulation (a barrier fan-in at 1024 nodes, say) doesn't pin its peak
// event population in memory for the rest of the run; beyond the cap,
// recycled events are dropped for the GC. 12288 48-byte events take
// fewer bytes than the 8192 the cap held when an event was 80 bytes.
const maxEventPool = 12 << 10

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
	ev.canceled = false
	k.events.push(entry{key{t, k.seq}, ev})
	k.seq++
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
// ref is still current (and so names a queued event). Canceled entries
// stay in the queue until popped or until enough accumulate to trigger
// compaction.
func (k *Kernel) cancel(r evref) {
	if !r.valid() || r.ev.canceled {
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

// compactMin is the queue length below which compaction is never worth
// it.
const compactMin = 64

// maybeCompact drops canceled entries from the queue once they outnumber
// the live ones. Long timeout-heavy simulations (GetTimeout) otherwise
// accumulate dead timers until their one-time pop. Pop order follows the
// keys alone, so it — and with it the simulation — is unchanged.
func (k *Kernel) maybeCompact() {
	if k.events.len() < compactMin || k.ncanceled*2 <= k.events.len() {
		return
	}
	k.sweep(func(ev *event) bool { return ev.canceled })
	k.ncanceled = 0
}

// sweep recycles every queued event that drop reports and keeps the
// rest. last does not move, so a kept entry goes back to its own bucket.
func (k *Kernel) sweep(drop func(*event) bool) {
	q := &k.events
	for b := range q.buckets {
		for c := q.take(b); c != nil; c = q.release(c) {
			for _, e := range c.e[:c.n] {
				if drop(e.ev) {
					k.recycle(e.ev)
					q.n--
				} else {
					q.put(b, e)
				}
			}
		}
	}
	if q.top.ev != nil && drop(q.top.ev) {
		k.recycle(q.top.ev)
		q.top = entry{}
		q.n--
	}
}
