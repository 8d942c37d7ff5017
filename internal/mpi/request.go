package mpi

import "abred/internal/gm"

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int32
	Count  int // payload bytes delivered
}

// reqKind distinguishes request state machines.
type reqKind int

const (
	reqSendEager reqKind = iota
	reqSendRendezvous
	reqRecv
)

// Request is a non-blocking operation handle (MPI_Request).
type Request struct {
	pr   *Process
	kind reqKind
	done bool

	// Receive matching criteria and destination buffer.
	ctx    uint16
	src    int // AnySource allowed
	tag    int32
	buf    []byte
	status Status

	// Rendezvous-send state.
	data       []byte
	dst        int
	handle     uint64
	pinned     *gm.Region
	collective bool // send data with the collective packet type

	// onComplete, if set, fires once when the request completes; the
	// application-bypass layer chains rendezvous receives to reduction
	// descriptors with it.
	onComplete func()
}

// Done reports whether the operation has completed.
func (r *Request) Done() bool { return r.done }

// SetOnComplete installs a completion callback, firing it immediately
// if the request is already done.
func (r *Request) SetOnComplete(fn func()) {
	if r.done {
		fn()
		return
	}
	r.onComplete = fn
}

// Wait drives the progress engine until the request completes and
// returns its status. Blocked time burns CPU (polling), exactly like
// MPICH-over-GM's polling progress.
func (r *Request) Wait() Status {
	r.pr.ProgressUntil(func() bool { return r.done })
	return r.status
}

// WaitAll completes every request.
func WaitAll(reqs ...*Request) {
	for _, r := range reqs {
		if r != nil {
			r.Wait()
		}
	}
}
