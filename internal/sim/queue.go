package sim

// Queue is an unbounded FIFO queue in virtual time with one consumer.
// Put never blocks and may come from any process or scheduler context;
// Get parks the calling process until an item is available. At most one
// process may be parked on a queue: a second consumer panics, naming the
// queue. The item store is a ring buffer, so the steady state allocates
// nothing: TryGet does not drift the backing array.
type Queue[T any] struct {
	name  string
	where string // park label, built once ("queue " + name)
	items []T    // ring buffer
	head  int
	n     int

	waiter   *Proc // the parked consumer, nil if none
	deadline Timer // GetTimeout's, its Runner the queue (queueTimeout)
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

// Reset empties the queue, forgets its consumer and disarms a pending
// GetTimeout deadline, keeping ring capacity for reuse. The caller must
// ensure no parked process still expects a wake from this queue (cluster
// reset kills leftover processes first).
func (q *Queue[T]) Reset() {
	var zero T
	for i := 0; i < q.n; i++ {
		q.items[(q.head+i)%len(q.items)] = zero
	}
	q.head, q.n = 0, 0
	q.waiter = nil
	q.deadline = Timer{}
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

// Put appends v and wakes the parked consumer, if any. It may be called
// from process or scheduler context.
func (q *Queue[T]) Put(v T) {
	if q.n == len(q.items) {
		q.grow()
	}
	q.items[(q.head+q.n)%len(q.items)] = v
	q.n++
	q.wake()
}

// wake resumes the parked consumer, if any, at the current time.
func (q *Queue[T]) wake() {
	if p := q.waiter; p != nil {
		q.waiter = nil
		p.wakeAt(p.k.now)
	}
}

// wait parks p as the queue's consumer until Put or GetTimeout's
// deadline wakes it.
func (q *Queue[T]) wait(p *Proc) {
	if q.waiter != nil {
		panic("sim: a second consumer parked on " + q.where)
	}
	q.waiter = p
	p.park(q.where)
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
		q.wait(p)
	}
}

// GetTimeout is like Get but gives up after d, returning ok=false. A
// timeout consumes exactly d of virtual time.
//
// Same-tick audit: when a Put lands on the same virtual tick as the
// deadline, p resumes exactly once whichever fires first. Deadline
// first: it takes p off the queue and wakes it, so the Put finds no
// consumer. Put first: it takes p off the queue and wakes it, and the
// deadline finds no consumer. Either way p re-checks TryGet before
// reporting the timeout, so an item landing on the deadline is
// delivered, never lost. A deadline still pending when p resumes is
// stopped.
func (q *Queue[T]) GetTimeout(p *Proc, d Time) (T, bool) {
	var zero T
	deadline := p.k.now + d
	if q.deadline.k == nil {
		q.deadline.Init(p.k, (*queueTimeout[T])(q))
	}
	for {
		if v, ok := q.TryGet(); ok {
			return v, true
		}
		if p.k.now >= deadline {
			return zero, false
		}
		q.deadline.Set(deadline)
		q.wait(p)
		q.deadline.Stop()
	}
}

// queueTimeout is a queue as the Runner of its GetTimeout deadline.
type queueTimeout[T any] Queue[T]

// RunEvent fires the deadline: the consumer, if a Put has not already
// woken it, is woken to report the timeout.
func (q *queueTimeout[T]) RunEvent() { (*Queue[T])(q).wake() }
