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

// Timer is a cancelable event: at most one pending firing of its
// Runner. Set arms it, replacing a pending firing, and Stop cancels one.
// Its queue entry targets the timer, live while the stamp seq is the
// entry's seq + 1, so canceling is zeroing the stamp, as for a process
// wake. A Timer lives by value in whatever it times (a daemon's step, a
// flow's completion, a queue's GetTimeout deadline) and never allocates.
// Kernel.Reset drops every entry but cannot see a Timer's stamp, so the
// holder of a Timer that may be pending at a Reset clears it then:
// Kernel.Reset its daemons', Queue.Reset its deadline, and any other
// holder by calling Init again.
type Timer struct {
	k   *Kernel
	seq uint64 // seq + 1 of the pending firing's entry, 0 if none
	r   Runner
}

// Init binds t to kernel k and target r, with nothing pending.
func (t *Timer) Init(k *Kernel, r Runner) { *t = Timer{k: k, r: r} }

// Set arms t to fire at at (clamped to the clock), canceling a pending
// firing first.
func (t *Timer) Set(at Time) {
	t.Stop()
	t.seq = t.k.push(at, t) + 1
}

// Stop cancels t's pending firing, if any. Its entry stays queued, stale,
// until popped or compacted away.
func (t *Timer) Stop() {
	if t.seq != 0 {
		t.seq = 0
		t.k.staled()
	}
}

// Pending reports whether t has a firing queued.
func (t *Timer) Pending() bool { return t.seq != 0 }

// RunEvent fires t: nothing is pending any more, and its target runs.
func (t *Timer) RunEvent() {
	t.seq = 0
	t.r.RunEvent()
}

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
// process wake targets the process (procWake) and a cancelable event its
// Timer; each is live while its target's stamp is the entry's seq + 1,
// so canceling one is zeroing the stamp. Any other Runner is always
// live.
type entry struct {
	key
	target Runner
}

// stale reports whether e no longer names an event to run: a process
// wake or a Timer firing whose stamp has moved on (Interrupt, Stop, a
// replacing Set).
func stale(e *entry) bool {
	switch r := e.target.(type) {
	case *procWake:
		return r.wseq != e.seq+1
	case *Timer:
		return r.seq != e.seq+1
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

// staled counts one queued entry gone stale: a wake or Timer firing
// whose stamp was zeroed. Stale entries stay in the queue until popped
// or until enough accumulate to trigger compaction.
func (k *Kernel) staled() {
	k.ncanceled++
	k.maybeCompact()
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
					q.n--
				} else {
					q.put(b, *e)
				}
			}
		}
	}
	if q.top.target != nil && (all || stale(&q.top)) {
		q.top = entry{}
		q.n--
	}
}
