package sim

import "math/bits"

// Runner is an event target executed in scheduler context, the
// closure-free alternative to Kernel.After for hot paths: the scheduling
// layer keeps a pool of Runner implementations and re-arms them instead
// of allocating a fresh closure per event. RunEvent must not park (it
// has no process).
type Runner interface {
	RunEvent()
}

// funcRunner runs a closure as an event target (Kernel.After). A func
// value is one pointer, so converting it to a Runner allocates nothing.
type funcRunner func()

func (f funcRunner) RunEvent() { f() }

// event is the pooled record behind a cancelable handle: an EventRef or
// GetTimeout's timer. Its queue entry targets the record; when the entry
// pops, the record is recycled and then run runs. No other event has a
// record: a queue entry targets a process wake, a daemon step or a plain
// Runner itself (see entry).
//
// A record is recycled as soon as its entry pops, live or canceled, and
// recycling advances its generation, so an evref whose generation still
// matches names a queued record, and stale evrefs held by earlier wake
// sources can never touch a recycled slot.
type event struct {
	run      Runner
	k        *Kernel
	gen      uint64 // bumped on recycle; validates evrefs
	canceled bool
}

// RunEvent recycles the record, so that refs to it are already stale,
// and runs its target.
func (ev *event) RunEvent() {
	r := ev.run
	ev.k.recycle(ev)
	r.RunEvent()
}

// evref is a cancelation handle for a scheduled record. It stays valid
// only while the record's generation matches: after the event fires (and
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
// beside its target, which the kernel runs from the entry alone. A
// process wake targets the process (procWake) and a daemon step the
// daemon; each is live while its target's stamp is the entry's seq + 1,
// so canceling one is zeroing the stamp. A record (event) is live while
// not canceled. Any other Runner is always live.
type entry struct {
	key
	target Runner
}

// stale reports whether e no longer names an event to run: a process
// wake or daemon step whose stamp has moved on (Interrupt, WakeAt), or a
// canceled record.
func stale(e *entry) bool {
	switch r := e.target.(type) {
	case *procWake:
		return r.wseq != e.seq+1
	case *Daemon:
		return r.seq != e.seq+1
	case *event:
		return r.canceled
	}
	return false
}

// chunkLen entries and a chunk's two header words fit the 768-byte size
// class: 16 + 23 × 32 = 752 bytes.
const chunkLen = 23

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
// the buckets hold. Keys are never negative: Kernel.push clamps t to the
// clock. DESIGN §4 gives the argument in full.
type eventQueue struct {
	top     entry     // the minimum, once taken from its bucket; top.target == nil until then
	last    key       // the last minimum taken
	n       int       // entries, top included
	mask    [2]uint64 // bit b set: bucket b is non-empty
	buckets [128]*chunk
	free    *chunk // spare chunks, linked through next
}

// len returns the number of queued entries, stale ones included.
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
// event that ran last, Kernel.push clamps t to its time, and seq only
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
// NextEventTime skimmed a stale entry later than the clock and an
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
	if q.top.target != nil {
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
// gives back the chunk that followed it. The entries stay as they are:
// clearing every chunk a settle empties cost BenchmarkProcSwitch about
// 8 % with 32-byte entries, and the stale copies only name targets
// queued earlier in this run until put overwrites them or Reset scrubs
// the free list.
func (q *eventQueue) release(c *chunk) *chunk {
	next := c.next
	c.next, c.n = q.free, 0
	q.free = c
	return next
}

// scrub clears every free chunk, so that the free list keeps no target of
// an earlier run reachable.
func (q *eventQueue) scrub() {
	for c := q.free; c != nil; c = c.next {
		clear(c.e[:])
	}
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
	if q.top.target == nil {
		q.settle()
	}
	return &q.top
}

// pop removes and returns the minimum entry. The queue must not be
// empty.
func (q *eventQueue) pop() entry {
	if q.top.target == nil {
		q.settle()
	}
	e := q.top
	q.top = entry{}
	q.n--
	return e
}

// above reports whether every queued entry is later than t, judged
// without a settle: from top once the minimum is taken, otherwise from
// the least time the lowest non-empty bucket can hold. A key in bucket
// 64 + j agrees with last above bit j of t and has that bit set, so its
// time is at least last.t with the bits below j cleared and bit j set; a
// key in a bucket below 64 has last's time. The bound is conservative:
// above may report false when the minimum is in fact later than t.
func (q *eventQueue) above(t Time) bool {
	if q.n == 0 {
		return true
	}
	if q.top.target != nil {
		return q.top.t > t
	}
	if q.mask[0] != 0 {
		return q.last.t > t
	}
	j := bits.TrailingZeros64(q.mask[1])
	lo := uint64(q.last.t)&^(1<<j-1) | 1<<j
	return lo > uint64(t)
}

// maxEventPool caps the record free list so a burst of cancelable
// timers doesn't pin its peak record population in memory for the rest
// of the run; beyond the cap, recycled records are dropped for the GC.
const maxEventPool = 12 << 10

// push enqueues r to run at time t (clamped to the clock) and returns
// the entry's seq. It may be called from scheduler context or from a
// running process.
func (k *Kernel) push(t Time, r Runner) uint64 {
	if t < k.now {
		t = k.now
	}
	seq := k.seq
	k.events.push(entry{key{t, seq}, r})
	k.seq++
	return seq
}

// schedule enqueues r at time t behind a pooled record, for the events
// that can be canceled: EventRef and GetTimeout's timer.
func (k *Kernel) schedule(t Time, r Runner) evref {
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = &event{k: k}
	}
	ev.run = r
	ev.canceled = false
	k.push(t, ev)
	return evref{ev: ev, gen: ev.gen}
}

// cancel marks the referenced record so its entry is skipped, provided
// the ref is still current (and so names a queued record).
func (k *Kernel) cancel(r evref) {
	if !r.valid() || r.ev.canceled {
		return
	}
	r.ev.canceled = true
	k.staled()
}

// staled counts one queued entry gone stale: a canceled record, or a
// wake or step whose stamp was zeroed. Stale entries stay in the queue
// until popped or until enough accumulate to trigger compaction.
func (k *Kernel) staled() {
	k.ncanceled++
	k.maybeCompact()
}

// recycle returns a record to the free list, invalidating all
// outstanding refs to it.
func (k *Kernel) recycle(ev *event) {
	ev.gen++
	ev.run = nil
	if len(k.free) < maxEventPool {
		k.free = append(k.free, ev)
	}
}

// drop discards a queued entry that will not run: its record, if it
// has one, goes back to the pool.
func (k *Kernel) drop(e *entry) {
	if ev, ok := e.target.(*event); ok {
		k.recycle(ev)
	}
}

// compactMin is the queue length below which compaction is never worth
// it.
const compactMin = 64

// maybeCompact drops stale entries from the queue once they outnumber
// the live ones. Long timeout-heavy simulations (GetTimeout) otherwise
// accumulate dead timers until their one-time pop. Pop order follows the
// keys alone, so it — and with it the simulation — is unchanged.
func (k *Kernel) maybeCompact() {
	if k.events.len() < compactMin || k.ncanceled*2 <= k.events.len() {
		return
	}
	k.sweep(false)
	k.ncanceled = 0
}

// sweep drops every stale entry, or every entry when all is set, and
// keeps the rest. last does not move, so a kept entry goes back to its
// own bucket.
func (k *Kernel) sweep(all bool) {
	q := &k.events
	for b := range q.buckets {
		for c := q.take(b); c != nil; c = q.release(c) {
			for i := range c.e[:c.n] {
				if e := &c.e[i]; all || stale(e) {
					k.drop(e)
					q.n--
				} else {
					q.put(b, *e)
				}
			}
		}
	}
	if q.top.target != nil && (all || stale(&q.top)) {
		k.drop(&q.top)
		q.top = entry{}
		q.n--
	}
}
