package sim

// Queue is an unbounded FIFO queue in virtual time. Put never blocks;
// Get parks the calling process until an item is available. A Queue is
// safe for use by any number of simulated processes (the kernel's strict
// hand-off scheduling means no real concurrency ever occurs).
//
// Both the item store and the waiter list are ring buffers, so the
// steady state allocates nothing: TryGet does not drift the backing
// array. Waiter removal is O(1) amortized — each waiting process
// remembers its ring position, and removal tombstones the slot for the
// next wake to skip.
type Queue[T any] struct {
	name  string
	where string // park label, built once ("queue " + name)
	items []T    // ring buffer
	head  int
	n     int

	waiters  []*Proc // ring buffer; nil entries are removed waiters
	whead    int     // ring index of the logical head
	wcount   int     // slots in use, tombstones included
	wheadPos uint64  // position counter of the slot at whead
	wnextPos uint64  // position assigned to the next enqueued waiter
}

// NewQueue returns an empty queue; name appears in deadlock reports.
func NewQueue[T any](name string) *Queue[T] {
	q := &Queue[T]{}
	q.Init(name)
	return q
}

// Init initializes q in place, the slab-friendly form of NewQueue for
// queues embedded by value in larger per-node structures.
func (q *Queue[T]) Init(name string) {
	q.name = name
	q.where = "queue " + name
}

// Reset empties the queue — items and waiters both — keeping ring
// capacity for reuse. The caller must ensure no parked process still
// expects a wake from this queue (cluster reset kills leftover
// processes first).
func (q *Queue[T]) Reset() {
	var zero T
	for i := 0; i < q.n; i++ {
		q.items[(q.head+i)%len(q.items)] = zero
	}
	q.head, q.n = 0, 0
	for i := range q.waiters {
		q.waiters[i] = nil
	}
	q.whead, q.wcount = 0, 0
	q.wheadPos, q.wnextPos = 0, 0
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// grow doubles the item ring, unrolling it into the new backing array.
func (q *Queue[T]) grow() {
	c := 2 * len(q.items)
	if c == 0 {
		c = 8
	}
	items := make([]T, c)
	for i := 0; i < q.n; i++ {
		items[i] = q.items[(q.head+i)%len(q.items)]
	}
	q.items = items
	q.head = 0
}

// Put appends v and wakes the oldest waiting process, if any. It may be
// called from process or scheduler context.
func (q *Queue[T]) Put(v T) {
	if q.n == len(q.items) {
		q.grow()
	}
	q.items[(q.head+q.n)%len(q.items)] = v
	q.n++
	q.wakeOne()
}

// wakeOne pops the oldest live waiter and schedules its resume, skipping
// tombstoned slots.
func (q *Queue[T]) wakeOne() {
	for q.wcount > 0 {
		p := q.waiters[q.whead]
		q.waiters[q.whead] = nil
		q.whead = (q.whead + 1) % len(q.waiters)
		q.wheadPos++
		q.wcount--
		if p != nil {
			p.wakeAt(p.k.now)
			return
		}
	}
}

// addWaiter parks p at the tail of the waiter ring, recording its
// position for O(1) removal. A process waits on at most one queue at a
// time, so the position lives on the Proc itself.
func (q *Queue[T]) addWaiter(p *Proc) {
	if q.wcount == len(q.waiters) {
		c := 2 * len(q.waiters)
		if c == 0 {
			c = 4
		}
		ws := make([]*Proc, c)
		for i := 0; i < q.wcount; i++ {
			ws[i] = q.waiters[(q.whead+i)%len(q.waiters)]
		}
		q.waiters = ws
		q.whead = 0
	}
	q.waiters[(q.whead+q.wcount)%len(q.waiters)] = p
	p.wpos = q.wnextPos
	q.wnextPos++
	q.wcount++
}

// removeWaiter tombstones p's slot if p is still enqueued; a no-op when
// a wake already dequeued it. O(1): the slot is computed from the
// position recorded at addWaiter.
func (q *Queue[T]) removeWaiter(p *Proc) {
	off := p.wpos - q.wheadPos
	if off >= uint64(q.wcount) {
		return // already dequeued (position fell off the ring head)
	}
	i := (q.whead + int(off)) % len(q.waiters)
	if q.waiters[i] == p {
		q.waiters[i] = nil
	}
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head = (q.head + 1) % len(q.items)
	q.n--
	return v, true
}

// Get removes and returns the head item, parking p until one is
// available.
func (q *Queue[T]) Get(p *Proc) T {
	for {
		if v, ok := q.TryGet(); ok {
			return v
		}
		q.addWaiter(p)
		p.park(q.where)
	}
}

// GetTimeout is like Get but gives up after d, returning ok=false. A
// timeout consumes exactly d of virtual time.
//
// Same-tick audit: when a Put lands on the same virtual tick as the
// timeout event, p resumes exactly once whichever fires first. Timeout
// first: it tombstones p's waiter slot (wakeOne skips tombstones, so
// the Put's wake passes to the next live waiter) and its wakeAt is
// idempotent against any already-pending resume. Put first: wakeOne
// dequeues p, the late timeout's removeWaiter is a position-checked
// no-op and its wakeAt is absorbed. Either way p re-checks TryGet
// before reporting the timeout, so an item landing on the deadline is
// delivered, never lost.
func (q *Queue[T]) GetTimeout(p *Proc, d Time) (T, bool) {
	var zero T
	deadline := p.k.now + d
	for {
		if v, ok := q.TryGet(); ok {
			return v, true
		}
		if p.k.now >= deadline {
			return zero, false
		}
		timedOut := false
		ev := p.k.schedule(deadline, funcRunner(func() {
			timedOut = true
			q.removeWaiter(p)
			p.wakeAt(p.k.now)
		}))
		q.addWaiter(p)
		p.park(q.where)
		if !timedOut {
			// Woken by Put (which dequeued p) — just disarm the timer;
			// the timeout path already removed p above.
			p.k.cancel(ev)
			q.removeWaiter(p)
		}
	}
}
