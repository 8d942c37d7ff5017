package abred

import (
	"time"

	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/core"
	"abred/internal/fault"
	"abred/internal/model"
	"abred/internal/mpi"
)

// Op is a reduction operator.
type Op = mpi.Op

// Reduction operators. Every buffer of this API is []float64, so the
// bitwise operators of the layers below (integer-only) are not offered.
const (
	Sum  = mpi.OpSum
	Prod = mpi.OpProd
	Max  = mpi.OpMax
	Min  = mpi.OpMin
	LAnd = mpi.OpLAnd
	LOr  = mpi.OpLOr
)

// Metrics exposes the application-bypass engine's counters.
type Metrics = core.Metrics

// NodeSpec describes one node's hardware.
type NodeSpec = model.NodeSpec

// FaultConfig describes fabric fault injection (see WithFault); the
// zero value is a perfect fabric.
type FaultConfig = fault.Config

// FaultRule is the stochastic fault profile of a link.
type FaultRule = fault.Rule

// FaultScript drops the Nth frame on one directed link.
type FaultScript = fault.Script

// Cluster is a simulated machine room ready to run SPMD programs.
type Cluster struct {
	c *cluster.Cluster
}

// NewCluster builds a cluster; see the With* options. By default it has
// 8 nodes of the paper's interlaced heterogeneous mix.
func NewCluster(opts ...Option) *Cluster {
	cfg := config{
		specs: model.PaperCluster(8),
		seed:  1,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return &Cluster{c: cluster.New(cluster.Config{
		Specs: cfg.specs,
		Costs: cfg.costs,
		Seed:  cfg.seed,
		Fault: cfg.fault,
	})}
}

// Size returns the number of nodes.
func (cl *Cluster) Size() int { return len(cl.c.Nodes) }

// Close releases the cluster's simulated processes (including per-node
// NIC control programs). Programs that build many clusters should Close
// each when done; the cluster cannot Run again afterwards.
func (cl *Cluster) Close() { cl.c.Close() }

// Run executes fn once per rank (each on its own simulated process) and
// drives the simulation until every rank returns. It reports the virtual
// time consumed. Run may be called repeatedly for phased programs.
func (cl *Cluster) Run(fn func(r *Rank)) time.Duration {
	return cl.c.Run(func(n *cluster.Node, w *mpi.Comm) {
		fn(&Rank{node: n, w: w})
	})
}

// EngineMetrics returns rank r's application-bypass counters after (or
// between) runs.
func (cl *Cluster) EngineMetrics(r int) Metrics {
	return cl.c.Nodes[r].Engine.Metrics
}

// Rank is one process's handle inside Run: its identity, clock and the
// collective operations of the library.
type Rank struct {
	node *cluster.Node
	w    *mpi.Comm
}

// Rank returns the caller's rank.
func (r *Rank) Rank() int { return r.node.ID }

// Size returns the number of ranks.
func (r *Rank) Size() int { return r.w.Size() }

// Now returns the current virtual time.
func (r *Rank) Now() time.Duration { return r.node.Proc.Now() }

// CPUTime returns the virtual CPU time this rank has consumed.
func (r *Rank) CPUTime() time.Duration { return r.node.Proc.Busy() }

// Compute busy-spins for d of application work. The spin is
// interruptible: pending application-bypass work (signal handlers)
// executes inside it, exactly like computation on a real node. It
// returns the elapsed time, which exceeds d when handlers ran.
func (r *Rank) Compute(d time.Duration) time.Duration {
	return r.node.Proc.SpinInterruptible(d)
}

// Reduce is the application-bypass reduction (the paper's contribution).
// All ranks must call it; the combined result is returned at root and
// nil elsewhere. Internal tree ranks may return before their children
// have reported; their remaining work happens asynchronously during
// subsequent Compute calls or MPI operations.
func (r *Rank) Reduce(in []float64, op Op, root int) []float64 {
	out := r.buffers(len(in), root)
	r.node.Engine.Reduce(r.w, mpi.Float64sToBytes(in), out, len(in), mpi.Float64, op, root)
	if r.Rank() != root {
		return nil
	}
	return mpi.BytesToFloat64s(out)
}

// ReduceNoBypass is the default MPICH blocking reduction — the baseline
// the paper compares against. Internal ranks block until their whole
// subtree has reported.
func (r *Rank) ReduceNoBypass(in []float64, op Op, root int) []float64 {
	out := r.buffers(len(in), root)
	coll.Reduce(r.w, mpi.Float64sToBytes(in), out, len(in), mpi.Float64, op, root)
	if r.Rank() != root {
		return nil
	}
	return mpi.BytesToFloat64s(out)
}

// ReduceOnNIC runs the reduction on the NIC plane (the paper's §VII
// future-work extension): non-root ranks return as soon as their
// contribution reaches their NIC.
func (r *Rank) ReduceOnNIC(in []float64, op Op, root int) []float64 {
	out := r.buffers(len(in), root)
	r.node.Engine.NICReduce(r.w, mpi.Float64sToBytes(in), out, len(in), mpi.Float64, op, root)
	if r.Rank() != root {
		return nil
	}
	return mpi.BytesToFloat64s(out)
}

// Future is a split-phase operation handle.
type Future struct {
	req *core.Request
	out []byte
	own bool
}

// Wait blocks (burning CPU, like any MPI wait) until the operation
// completes locally and returns the result buffer where applicable.
func (f *Future) Wait() []float64 {
	f.req.Wait()
	if !f.own {
		return nil
	}
	return mpi.BytesToFloat64s(f.out)
}

// Done polls for completion without blocking.
func (f *Future) Done() bool { return f.req.Done() }

// IReduce is the split-phase application-bypass reduction (§II): it
// returns immediately on every rank, including the root, which therefore
// also benefits from bypass. Wait returns the result at root.
func (r *Rank) IReduce(in []float64, op Op, root int) *Future {
	out := make([]byte, len(in)*8)
	req := r.node.Engine.IReduce(r.w, mpi.Float64sToBytes(in), out, len(in), mpi.Float64, op, root)
	return &Future{req: req, out: out, own: r.Rank() == root}
}

// IAllreduce posts a split-phase allreduce (§II's enhancement for
// synchronizing operations): it returns immediately; Wait returns the
// combined result on every rank. No other collective may be issued on
// the communicator until it completes.
func (r *Rank) IAllreduce(in []float64, op Op) *Future {
	out := make([]byte, len(in)*8)
	req := r.node.Engine.IAllreduce(r.w, mpi.Float64sToBytes(in), out, len(in), mpi.Float64, op)
	return &Future{req: req, out: out, own: true}
}

// IBarrier posts a split-phase barrier: Wait (or Done) reports once
// every rank has entered it, while the caller keeps computing in the
// meantime.
func (r *Rank) IBarrier() *Future {
	return &Future{req: r.node.Engine.IBarrier(r.w)}
}

// Allreduce combines every rank's contribution and returns the result on
// all ranks, composed from application-bypass reduction and broadcast.
func (r *Rank) Allreduce(in []float64, op Op) []float64 {
	out := make([]byte, len(in)*8)
	r.node.Engine.Allreduce(r.w, mpi.Float64sToBytes(in), out, len(in), mpi.Float64, op)
	return mpi.BytesToFloat64s(out)
}

// Bcast distributes buf from root using application-bypass forwarding:
// a late intermediate rank no longer stalls its subtree. The received
// values are returned on every rank.
func (r *Rank) Bcast(vals []float64, root int) []float64 {
	buf := make([]byte, len(vals)*8)
	if r.Rank() == root {
		copy(buf, mpi.Float64sToBytes(vals))
	}
	r.node.Engine.Bcast(r.w, buf, len(vals), mpi.Float64, root)
	return mpi.BytesToFloat64s(buf)
}

// BcastNoBypass is the default MPICH binomial broadcast.
func (r *Rank) BcastNoBypass(vals []float64, root int) []float64 {
	buf := make([]byte, len(vals)*8)
	if r.Rank() == root {
		copy(buf, mpi.Float64sToBytes(vals))
	}
	coll.Bcast(r.w, buf, len(vals), mpi.Float64, root)
	return mpi.BytesToFloat64s(buf)
}

// Barrier synchronizes all ranks (MPICH tree barrier).
func (r *Rank) Barrier() { coll.Barrier(r.w) }

// Gather collects each rank's values at root (concatenated by rank);
// non-roots receive nil.
func (r *Rank) Gather(in []float64, root int) []float64 {
	var out []byte
	if r.Rank() == root {
		out = make([]byte, len(in)*8*r.Size())
	}
	coll.Gather(r.w, mpi.Float64sToBytes(in), out, len(in), mpi.Float64, root)
	if r.Rank() != root {
		return nil
	}
	return mpi.BytesToFloat64s(out)
}

// Scan returns the inclusive prefix reduction over ranks 0..Rank().
func (r *Rank) Scan(in []float64, op Op) []float64 {
	out := make([]byte, len(in)*8)
	coll.Scan(r.w, mpi.Float64sToBytes(in), out, len(in), mpi.Float64, op)
	return mpi.BytesToFloat64s(out)
}

// Send delivers vals to rank dst with tag (blocking point-to-point).
func (r *Rank) Send(dst, tag int, vals []float64) {
	r.w.Send(dst, int32(tag), mpi.Float64sToBytes(vals))
}

// Recv receives n float64 values from rank src with tag.
func (r *Rank) Recv(src, tag, n int) []float64 {
	buf := make([]byte, n*8)
	r.w.Recv(src, int32(tag), buf)
	return mpi.BytesToFloat64s(buf)
}

// Metrics returns this rank's application-bypass counters so far.
func (r *Rank) Metrics() Metrics { return r.node.Engine.Metrics }

// EnableRendezvousBypass turns on application bypass for messages
// beyond the eager limit (the paper's unexplored §V-B extension): large
// late children are streamed by a signal-driven RTS/CTS/Data handshake
// instead of forcing the fallback to the blocking implementation.
func (r *Rank) EnableRendezvousBypass() { r.node.Engine.EnableRendezvousAB() }

// SetExitDelay configures the §IV-E exit-delay heuristic: linger up to
// base + perProc×size inside Reduce so nearly on-time children complete
// synchronously. Zero values disable it (the paper's default).
func (r *Rank) SetExitDelay(base, perProc time.Duration) {
	if base == 0 && perProc == 0 {
		r.node.Engine.SetDelayPolicy(core.NoDelay{})
		return
	}
	r.node.Engine.SetDelayPolicy(core.ProcCountDelay{Base: base, PerProc: perProc})
}

// buffers allocates the receive buffer only where MPI requires one:
// every reduction reads recvbuf at the root alone.
func (r *Rank) buffers(count, root int) []byte {
	if r.Rank() != root {
		return nil
	}
	return make([]byte, count*8)
}
