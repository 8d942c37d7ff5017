package sim

// Daemon is a stackless simulated service: a state machine whose step
// function runs in scheduler context each time the daemon becomes
// runnable. It replaces the Spawn-a-process pattern for always-on
// background services (NIC control programs above all), where the
// process's only job was to park on a work queue: a callback daemon
// costs no coroutine, no stack, and no context switches — at N nodes
// that removes N stacks and two switches per serviced work item.
//
// Contract: the step function must not park (it has no process). It is
// invoked when a Wake or Sleep event fires, drains whatever work it
// finds, and either returns idle or calls Sleep(d) exactly once — to
// model time spent processing — and returns immediately after. Wakes
// arriving while a Sleep is pending are absorbed: the step runs anyway
// when the sleep expires, so it must always re-check its work sources.
//
// Blocking on a resource (a flow-control token, say) is modeled by
// recording the blocked state in the daemon's own state machine,
// returning without sleeping, and having the resource's release path
// call Wake.
type Daemon struct {
	k    *Kernel
	name string
	step func()

	// scheduled is true while a step event (wake or sleep) is pending;
	// it coalesces Wakes and keeps the daemon single-threaded in
	// virtual time. at/ref describe the pending event so WakeAt can
	// pull it earlier.
	scheduled bool
	at        Time
	ref       evref

	// status names what an idle daemon is waiting on; it appears in
	// deadlock reports, replacing the park reason a goroutine-based
	// daemon would have had.
	status string
}

// NewDaemon registers a callback daemon. The daemon starts idle: nothing
// runs until Wake is called. Daemons never keep the simulation alive:
// Run ends once every spawned process has finished, whatever the
// daemons still have scheduled.
func (k *Kernel) NewDaemon(name string, step func()) *Daemon {
	d := &Daemon{}
	k.InitDaemon(d, name, step)
	return d
}

// InitDaemon initializes d in place and registers it with the kernel,
// the slab-friendly form of NewDaemon for daemons embedded by value in
// larger per-node structures. Registered daemons survive Kernel.Reset
// (which disarms any pending step), so a reused cluster keeps its
// control programs.
func (k *Kernel) InitDaemon(d *Daemon, name string, step func()) {
	if k.shutdown {
		panic("sim: NewDaemon after Shutdown")
	}
	*d = Daemon{k: k, name: name, step: step}
	k.daemons = append(k.daemons, d)
}

// Now returns the current virtual time.
func (d *Daemon) Now() Time { return d.k.now }

// SetStatus records what the daemon is currently waiting on, for
// deadlock reports.
func (d *Daemon) SetStatus(s string) { d.status = s }

// Wake makes the daemon runnable at the current virtual time. It is
// idempotent: while a step event is already pending (from an earlier
// Wake or a Sleep), further Wakes are absorbed. May be called from any
// process or scheduler context.
func (d *Daemon) Wake() {
	if d.scheduled {
		return
	}
	d.arm(d.k.now)
}

// WakeAt schedules the next step at time t (clamped to now), for
// deadline-driven daemons (retransmit timers above all). Unlike Wake it
// is not absorbed by a pending later step: if one is scheduled after t
// it is pulled earlier, so the earliest requested deadline always wins.
// A pending step at or before t is left alone.
func (d *Daemon) WakeAt(t Time) {
	if t < d.k.now {
		t = d.k.now
	}
	if d.scheduled {
		if d.at <= t {
			return
		}
		d.k.cancel(d.ref)
	}
	d.arm(t)
}

// Sleep schedules the next step at now+dt, modeling time the daemon
// spends processing. It must be called from inside the step function,
// at most once per step, with the step returning immediately after.
func (d *Daemon) Sleep(dt Time) {
	if d.scheduled {
		panic("sim: Daemon.Sleep with a step already pending")
	}
	d.arm(d.k.now + dt)
}

// arm schedules the step event at t, recording it for WakeAt.
func (d *Daemon) arm(t Time) {
	d.scheduled = true
	d.at = t
	d.ref = d.k.scheduleRunner(t, d)
}

// RunEvent drives one step; the kernel invokes it when the daemon's
// wake or sleep event fires.
func (d *Daemon) RunEvent() {
	d.scheduled = false
	d.step()
}
