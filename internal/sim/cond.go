package sim

// Cond is a broadcast condition in virtual time. Processes park on Wait
// and resume when another process (or a scheduled closure) calls
// Broadcast. There is no spurious-wakeup guarantee in either direction:
// callers should re-check their predicate in a loop.
type Cond struct {
	name    string
	where   string // park label, built once ("cond " + name)
	waiters []*Proc
}

// NewCond returns a condition; name appears in deadlock reports.
func NewCond(name string) *Cond {
	c := &Cond{}
	c.Init(name)
	return c
}

// Init initializes c in place, the slab-friendly form of NewCond for
// conditions embedded by value in larger per-node structures.
func (c *Cond) Init(name string) {
	c.name = name
	c.where = "cond " + name
}

// Reset drops all waiters, keeping the buffer capacity. The caller must
// ensure no parked process still expects a Broadcast (cluster reset
// kills leftover processes first).
func (c *Cond) Reset() {
	for i := range c.waiters {
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}

// Wait parks p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park(c.where)
}

// Broadcast wakes every waiting process at the current virtual time.
// The waiter slice keeps its capacity: wakeAt only schedules events (no
// process runs until the caller parks), so no new waiter can appear
// mid-loop and the buffer can be reused allocation-free.
func (c *Cond) Broadcast() {
	for i, p := range c.waiters {
		c.waiters[i] = nil
		p.wakeAt(p.k.now)
	}
	c.waiters = c.waiters[:0]
}
