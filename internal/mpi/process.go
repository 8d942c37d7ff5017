// Package mpi rebuilds the slice of MPICH the paper modifies: ranks and
// communicators, point-to-point messaging with eager and rendezvous
// protocols over GM, posted-receive and unexpected queues, and an
// application-driven communication progress engine with the
// application-bypass pre-processing hook of Fig. 4.
package mpi

import (
	"abred/internal/gm"
	"abred/internal/model"
	"abred/internal/sim"
)

// AnySource and AnyTag are receive wildcards.
const (
	AnySource = -1
	AnyTag    = -1
)

// ProcStats counts per-process messaging activity. The copy counters
// back the paper's claim of 50% / 100% copy reductions (§V-B, §V-C).
type ProcStats struct {
	EagerSends      uint64
	RendezvousSends uint64
	ExpectedMsgs    uint64 // arrived after a matching receive was posted
	UnexpectedMsgs  uint64 // buffered in the MPICH unexpected queue
	HostCopies      uint64 // payload copies performed by the host CPU
	HostCopiedBytes uint64
	SignalsRun      uint64 // signal handlers that found work
	SignalsIgnored  uint64 // signal handlers that found progress already done
	RetriedMsgs     uint64 // packets that needed GM-level retransmission
	PollBusy        sim.Time
}

// Process is one MPI rank: its simulated host process, NIC, queues and
// protocol state. All methods must be called from the process's own
// sim.Proc context (or from its interrupt handlers, which run there too).
type Process struct {
	P   *sim.Proc
	CM  model.CostModel
	Mem *gm.MemRegistry

	nic  *gm.NIC
	rank int
	size int

	posted     []*Request
	unexpected []*uMsg

	sendRv     map[uint64]*Request // pending rendezvous sends by handle
	recvRv     map[uint64]*Request // pinned receives awaiting data by handle
	nextHandle uint64

	// abHook is the application-bypass pre-processing step of Fig. 4:
	// the progress engine offers every collective packet to it before
	// the default matching logic. Returning true consumes the packet.
	abHook func(*gm.Packet) bool

	// reqFree recycles request handles for the blocking receive path,
	// where the handle never escapes the call.
	reqFree []*Request

	// umsgFree recycles unexpected-queue entries and their payload
	// buffers; an entry dies as soon as a matching receive consumes it.
	umsgFree []*uMsg

	// bufFree recycles the collective layers' scratch buffers
	// (accumulators, receive temporaries, barrier tokens) whose lifetime
	// never escapes one call. Only buffers whose bytes are out of the
	// simulation may be returned: eager sends copy synchronously, but a
	// rendezvous data packet aliases the send buffer until delivery.
	bufFree [][]byte

	// eagerDone is the completion handle shared by every eager Isend:
	// the operation is already complete when Isend returns and callers
	// only observe done==true, so one per-process handle serves all of
	// them without a steady-state allocation.
	eagerDone Request

	Stats ProcStats
}

// maxRequestPool caps the recycled-request list; blocking receives are
// sequential per process, so the pool stays tiny in practice.
const maxRequestPool = 16

// getReq returns a zeroed request from the pool (or a fresh one).
func (pr *Process) getReq() *Request {
	if l := len(pr.reqFree); l > 0 {
		r := pr.reqFree[l-1]
		pr.reqFree[l-1] = nil
		pr.reqFree = pr.reqFree[:l-1]
		return r
	}
	return &Request{}
}

// putReq recycles a request that no queue or map references anymore.
func (pr *Process) putReq(r *Request) {
	*r = Request{}
	if len(pr.reqFree) < maxRequestPool {
		pr.reqFree = append(pr.reqFree, r)
	}
}

// maxUMsgPool caps the recycled unexpected-queue entries per process.
const maxUMsgPool = 64

// getUMsg returns a zeroed unexpected-queue entry, keeping any recycled
// payload buffer for reuse.
func (pr *Process) getUMsg() *uMsg {
	if l := len(pr.umsgFree); l > 0 {
		m := pr.umsgFree[l-1]
		pr.umsgFree[l-1] = nil
		pr.umsgFree = pr.umsgFree[:l-1]
		return m
	}
	return &uMsg{}
}

// putUMsg recycles an entry whose payload has been consumed.
func (pr *Process) putUMsg(m *uMsg) {
	data := m.data[:0]
	*m = uMsg{data: data}
	if len(pr.umsgFree) < maxUMsgPool {
		pr.umsgFree = append(pr.umsgFree, m)
	}
}

// maxBufPool caps the recycled scratch buffers per process; the
// collective layers hold at most two at a time.
const maxBufPool = 8

// GetBuf returns an n-byte scratch buffer with unspecified contents;
// callers must fully overwrite it before the bytes can matter.
func (pr *Process) GetBuf(n int) []byte {
	for i := len(pr.bufFree) - 1; i >= 0; i-- {
		if b := pr.bufFree[i]; cap(b) >= n {
			last := len(pr.bufFree) - 1
			pr.bufFree[i] = pr.bufFree[last]
			pr.bufFree[last] = nil
			pr.bufFree = pr.bufFree[:last]
			return b[:n]
		}
	}
	return make([]byte, n)
}

// PutBuf returns a scratch buffer to the pool. Never pass a buffer a
// rendezvous send may still alias (see bufFree).
func (pr *Process) PutBuf(b []byte) {
	if cap(b) > 0 && len(pr.bufFree) < maxBufPool {
		pr.bufFree = append(pr.bufFree, b)
	}
}

// EagerPoolBytes is the eager bounce-buffer pool a rank pins before its
// program runs (64*EagerThreshold bytes) — the one virtual-time charge
// of rank start-up, which the flow engine's rank drivers pay as well.
func EagerPoolBytes(cm model.CostModel) int { return 64 * cm.EagerThreshold() }

// NewProcess builds rank `rank` of `size` on the given NIC, attached to
// proc p. It allocates the rank's maps and registry and ends in Reset,
// which pins the eager bounce-buffer pool.
func NewProcess(p *sim.Proc, rank, size int, nic *gm.NIC, cm model.CostModel) *Process {
	pr := &Process{
		CM:     cm,
		Mem:    gm.NewMemRegistry(cm),
		nic:    nic,
		rank:   rank,
		size:   size,
		sendRv: make(map[uint64]*Request),
		recvRv: make(map[uint64]*Request),
	}
	pr.Reset(p)
	return pr
}

// Rebind attaches the process to a new simulated proc; used when a
// cluster runs several programs back to back, each with fresh procs.
func (pr *Process) Rebind(p *sim.Proc) { pr.P = p }

// Reset puts the process in its just-built state, attached to proc p:
// empty queues and maps, zero counters, and the eager bounce-buffer pool
// pinned, charging the one-time registration cost to p. NewProcess ends
// here, so a reused cluster's first virtual-time charges are a fresh
// one's by construction. Request/uMsg/scratch pools keep their
// capacity: pool hits never touch virtual time.
func (pr *Process) Reset(p *sim.Proc) {
	pr.P = p
	for i := range pr.posted {
		pr.posted[i] = nil
	}
	pr.posted = pr.posted[:0]
	for i := range pr.unexpected {
		pr.unexpected[i] = nil
	}
	pr.unexpected = pr.unexpected[:0]
	clear(pr.sendRv)
	clear(pr.recvRv)
	pr.nextHandle = 0
	pr.abHook = nil
	pr.eagerDone = Request{}
	pr.Stats = ProcStats{}
	pr.Mem.Reset()
	// The eager bounce buffers MPICH-over-GM keeps pinned.
	pr.Mem.Pin(p, EagerPoolBytes(pr.CM))
}

// Rank returns this process's rank in the world.
func (pr *Process) Rank() int { return pr.rank }

// Size returns the world size.
func (pr *Process) Size() int { return pr.size }

// NIC exposes the process's network interface to the collective layers.
func (pr *Process) NIC() *gm.NIC { return pr.nic }

// SetABHook installs the application-bypass pre-processing hook
// (Fig. 4). Pass nil to remove it.
func (pr *Process) SetABHook(fn func(*gm.Packet) bool) { pr.abHook = fn }

// PendingCollectiveSends counts rendezvous sends of collective type
// still awaiting clear-to-send; while any exist the engine keeps NIC
// signals enabled so the handshake advances without application help.
func (pr *Process) PendingCollectiveSends() int {
	n := 0
	for _, req := range pr.sendRv {
		if req.collective {
			n++
		}
	}
	return n
}

// chargeCopy spins for a host memcpy of n bytes and counts it.
func (pr *Process) chargeCopy(n int) {
	pr.P.Spin(pr.CM.HostCopy(n))
	pr.Stats.HostCopies++
	pr.Stats.HostCopiedBytes += uint64(n)
}

// handle allocates a rendezvous handle unique within this process.
func (pr *Process) handle() uint64 {
	pr.nextHandle++
	return pr.nextHandle<<8 | uint64(pr.rank&0xFF)
}

// uMsg is an entry in the MPICH unexpected queue: either a buffered
// eager/collective payload or a queued rendezvous RTS.
type uMsg struct {
	ctx     uint16
	tag     int32
	srcRank int32
	data    []byte     // owned copy of an eager payload
	rts     *gm.Packet // an unmatched rendezvous announcement
	at      sim.Time
}

func (m *uMsg) matches(ctx uint16, src int, tag int32) bool {
	return m.ctx == ctx &&
		(src == AnySource || int32(src) == m.srcRank) &&
		(tag == AnyTag || tag == m.tag)
}
