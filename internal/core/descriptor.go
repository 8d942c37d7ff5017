package core

import (
	"fmt"

	"abred/internal/mpi"
)

// descriptor holds the intermediate state of one in-flight reduction
// (§V-A): the running result, the identity of the parent the final
// result goes to, and the list of children with receives still pending.
// The child list doubles as the key for matching late messages to the
// right reduction instance (§IV-D).
type descriptor struct {
	ctx  uint16
	seq  uint64
	tag  int32
	root int

	parent  int // -1 for a split-phase root descriptor
	pending []int

	acc   []byte
	count int
	dt    mpi.Datatype
	op    mpi.Op

	recvbuf   []byte   // result destination; split-phase root only
	req       *Request // completion handle; split-phase only
	completed bool
}

// maxDescPool caps the recycled-descriptor list; the descriptor queue
// stays shallow (DescQueuePeak is single digits in every workload), so
// the pool does too.
const maxDescPool = 32

// getDesc returns a descriptor from the pool, keeping the recycled acc
// and pending backing arrays; beginInternal overwrites every field.
func (e *Engine) getDesc() *descriptor {
	if l := len(e.descFree); l > 0 {
		d := e.descFree[l-1]
		e.descFree[l-1] = nil
		e.descFree = e.descFree[:l-1]
		return d
	}
	return &descriptor{}
}

// putDesc recycles a completed descriptor. The struct is deliberately
// not zeroed: syncPhase and drainUBQ still read d.completed after the
// instance finished, and it stays true until the next getDesc hands the
// memory to a new instance — which can only happen in a later
// beginInternal, strictly after those readers are done with it.
func (e *Engine) putDesc(d *descriptor) {
	d.req = nil
	d.recvbuf = nil
	if len(e.descFree) < maxDescPool {
		e.descFree = append(e.descFree, d)
	}
}

// waitingOn reports whether child has not been processed yet.
func (d *descriptor) waitingOn(child int) bool {
	for _, c := range d.pending {
		if c == child {
			return true
		}
	}
	return false
}

// removePending marks child processed.
func (d *descriptor) removePending(child int) {
	for i, c := range d.pending {
		if c == child {
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("core: child %d not pending on descriptor seq=%d", child, d.seq))
}

// processChild folds one child's contribution into the descriptor and,
// when it was the last, completes the instance: send the result to the
// parent (or finish the split-phase root) and dequeue the descriptor
// (Figs. 3 and 5 shared tail).
func (e *Engine) processChild(d *descriptor, child int, data []byte) {
	pr := e.pr
	pr.P.Spin(pr.CM.ReduceOp(d.count, d.dt.Size()))
	mpi.Apply(d.op, d.dt, d.acc, data, d.count)
	d.removePending(child)
	if len(d.pending) > 0 {
		return
	}

	d.completed = true
	recycle := true
	if d.parent >= 0 {
		sreq := pr.Isend(mpi.SendArgs{
			Dst: d.parent, Ctx: d.ctx, Tag: d.tag, Data: d.acc,
			Collective: true, Root: int32(d.root), Seq: d.seq,
		})
		if !sreq.Done() {
			// Rendezvous upward send: keep signals armed until the
			// clear-to-send handshake finishes. The data packet aliases
			// d.acc until delivery, so this descriptor is not recycled.
			recycle = false
			sreq.SetOnComplete(func() { e.updateSignals() })
		}
	} else {
		copy(d.recvbuf, d.acc)
	}
	if d.req != nil {
		d.req.complete()
	}
	e.removeDesc(d)
	e.Metrics.CompletedInstances++
	e.updateSignals()
	if recycle {
		e.putDesc(d)
	}
}

// removeDesc drops d from the descriptor queue.
func (e *Engine) removeDesc(d *descriptor) {
	for i, x := range e.descQ {
		if x == d {
			e.descQ = append(e.descQ[:i], e.descQ[i+1:]...)
			return
		}
	}
	panic("core: descriptor not in queue")
}

// pushDesc enqueues a descriptor, charging the bookkeeping cost.
func (e *Engine) pushDesc(d *descriptor) {
	e.pr.P.Spin(e.pr.CM.DescriptorOvh())
	e.descQ = append(e.descQ, d)
	if len(e.descQ) > e.Metrics.DescQueuePeak {
		e.Metrics.DescQueuePeak = len(e.descQ)
	}
}

// drainUBQ consumes every queued early message destined for d. Early
// messages were copied once on arrival and are combined straight from
// the queue entry (§V-B: "processed directly from the queue").
func (e *Engine) drainUBQ(d *descriptor) {
	for i := 0; i < len(e.ubq) && !d.completed; {
		m := e.ubq[i]
		if m.ctx != d.ctx || !d.waitingOn(int(m.srcRank)) {
			i++
			continue
		}
		if m.seq != d.seq {
			panic(fmt.Sprintf("core: FIFO violation in AB unexpected queue: msg seq %d, descriptor seq %d",
				m.seq, d.seq))
		}
		e.pr.P.Spin(e.pr.CM.QueueSearch(i + 1))
		e.ubq = append(e.ubq[:i], e.ubq[i+1:]...)
		e.Metrics.EarlyMessages++
		if m.rts != nil {
			// A queued large-child announcement: start its stream; the
			// combine happens when the payload lands.
			e.acceptLargeChild(d, m.rts)
			continue
		}
		e.Metrics.SyncChildren++
		e.processChild(d, int(m.srcRank), m.data)
	}
}
