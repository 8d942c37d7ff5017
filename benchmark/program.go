package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"abred/internal/bench"
	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/mpi"
	"abred/internal/sim"
	"abred/internal/stats"
)

// layerCounts are the per-layer counters of the packet cells of a round,
// read from the layers' exported stats after each run and before
// Pool.Put resets them. All are simulated quantities: exact for a seed.
type layerCounts struct {
	fabricFrames, fabricLinkWaits uint64
	fabricLinkWait                sim.Time
	faultDropped, faultDuplicated uint64

	gmRetransmits, gmTokenStallsHost, gmSignalsRaised, gmSignalsSuppressed, gmRelDupsDropped uint64

	mpiUnexpected, mpiHostCopies uint64
	mpiPollBusy                  sim.Time

	coreSignalsHandled, coreAsyncChildren, coreEarlyMessages uint64
}

// read adds the counters of a cluster that has just run.
func (c *layerCounts) read(cl *cluster.Cluster) {
	frames, _ := cl.Fabric.Stats()
	waits, wait := cl.Fabric.TopoStats()
	dropped, duplicated := cl.Fabric.FaultStats()
	c.fabricFrames += frames
	c.fabricLinkWaits += waits
	c.fabricLinkWait += wait
	c.faultDropped += dropped
	c.faultDuplicated += duplicated
	for _, n := range cl.Nodes {
		g := n.NIC.Stats()
		c.gmRetransmits += g.Retransmits
		c.gmTokenStallsHost += g.TokenStallsHost
		c.gmSignalsRaised += g.SignalsRaised
		c.gmSignalsSuppressed += g.SignalsSuppressed
		c.gmRelDupsDropped += g.RelDupsDropped
		c.mpiUnexpected += n.MPI.Stats.UnexpectedMsgs
		c.mpiHostCopies += n.MPI.Stats.HostCopies
		c.mpiPollBusy += n.MPI.Stats.PollBusy
		c.coreSignalsHandled += n.Engine.Metrics.SignalsHandled
		c.coreAsyncChildren += n.Engine.Metrics.AsyncChildren
		c.coreEarlyMessages += n.Engine.Metrics.EarlyMessages
	}
}

// report sets the counters as per-layer metrics.
func (c *layerCounts) report(v values) {
	v["fabric.frames"] = float64(c.fabricFrames)
	v["fabric.link_waits"] = float64(c.fabricLinkWaits)
	v["fabric.link_wait_us"] = micros(c.fabricLinkWait)
	v["fault.dropped"] = float64(c.faultDropped)
	v["fault.duplicated"] = float64(c.faultDuplicated)
	v["gm.retransmits"] = float64(c.gmRetransmits)
	v["gm.token_stalls_host"] = float64(c.gmTokenStallsHost)
	v["gm.signals_raised"] = float64(c.gmSignalsRaised)
	v["gm.signals_suppressed"] = float64(c.gmSignalsSuppressed)
	v["gm.rel_dups_dropped"] = float64(c.gmRelDupsDropped)
	v["mpi.unexpected_msgs"] = float64(c.mpiUnexpected)
	v["mpi.host_copies"] = float64(c.mpiHostCopies)
	v["mpi.poll_busy_us"] = micros(c.mpiPollBusy)
	v["core.signals_handled"] = float64(c.coreSignalsHandled)
	v["core.async_children"] = float64(c.coreAsyncChildren)
	v["core.early_messages"] = float64(c.coreEarlyMessages)
}

// catchUp is the conservative reduction-latency estimate the CPU
// benchmark spins for after each reduction, as bench.CPUUtil sizes it.
func catchUp(size, count int) sim.Time {
	depth := coll.Depth(size)
	if depth == 0 {
		depth = 1
	}
	perHop := 25*time.Microsecond + time.Duration(count)*100*time.Nanosecond
	return cellSkew + sim.Time(depth)*perHop + 150*time.Microsecond
}

// runTracedPacketCell is the traced form of a packet cell: the same
// simulation bench.CPUUtil runs — skew spin, reduction, catch-up spin,
// barrier, with the skew matrix drawn from the same kernel stream — but
// written here, over Pool.Get / Cluster.Run / stats.Summarize /
// Pool.Put, so each call is a span and the layers' counters can be read
// while the cluster still holds them. The self-test pins it
// bit-identical to bench.CPUUtil.
func runTracedPacketCell(c cell, seed int64, pool *cluster.Pool, tr *tracer, op, parent int, counts *layerCounts) (res cellResult) {
	if c.flow {
		panic("benchmark: runTracedPacketCell on a flow cell")
	}
	defer func() {
		if p := recover(); p != nil {
			res.err = fmt.Errorf("cell %s seed %d (traced): panic: %v", c.name, seed, p)
		}
	}()
	t0 := time.Now()
	cs := tr.begin("cell", op, parent)

	s := tr.begin("cluster.pool_get", op, cs)
	cl := pool.Get(c.clusterConfig(seed))
	tr.end(s)

	size := c.nodes
	rng := cl.K.NewRNG()
	flat := make([]sim.Time, c.iters*size)
	skews := make([][]sim.Time, c.iters)
	for it := range skews {
		skews[it] = flat[it*size : (it+1)*size]
		for r := range skews[it] {
			skews[it][r] = sim.Time(rng.Int63n(int64(cellSkew) + 1))
		}
	}
	catchup := catchUp(size, cellCount)
	perNode := make([]sim.Time, size)
	sigs := make([]uint64, size)
	var tree *coll.TopoTree
	if c.topoAware && c.mode == bench.AppBypass && cl.Topo.Levels() > 1 {
		s = tr.begin("coll.topotree_build", op, cs)
		tree = coll.NewTopoTree(size, 0, cl.Topo.Leaf)
		tr.end(s)
	}

	s = tr.begin("cluster.run", op, cs)
	end := cl.Run(func(n *cluster.Node, w *mpi.Comm) {
		if tree != nil {
			n.Engine.SetTopoTree(tree)
		}
		in := make([]byte, cellCount*8)
		for i := 0; i < cellCount; i++ {
			binary.LittleEndian.PutUint64(in[i*8:], math.Float64bits(float64(n.ID+i)))
		}
		out := make([]byte, cellCount*8)
		var cpu sim.Time
		for it := 0; it < c.iters; it++ {
			skew := skews[it][n.ID]
			start := n.Proc.Now()
			n.Proc.SpinInterruptible(skew)
			if c.mode == bench.AppBypass {
				n.Engine.Reduce(w, in, out, cellCount, mpi.Float64, mpi.OpSum, 0)
			} else {
				coll.Reduce(w, in, out, cellCount, mpi.Float64, mpi.OpSum, 0)
			}
			n.Proc.SpinInterruptible(catchup)
			cpu += n.Proc.Now() - start - skew - catchup
			coll.Barrier(w)
		}
		perNode[n.ID] = cpu / sim.Time(c.iters)
		sigs[n.ID] = n.Engine.Metrics.SignalsHandled
	})
	tr.end(s)

	s = tr.begin("stats.summarize", op, cs)
	_ = stats.Summarize(perNode)
	var total sim.Time
	for _, x := range perNode {
		total += x
	}
	for _, x := range sigs {
		res.signals += x
	}
	tr.end(s)
	res.avgCPU = total / sim.Time(size)
	res.elapsed = end
	res.events = cl.Events()
	counts.read(cl)

	s = tr.begin("cluster.pool_put", op, cs)
	pool.Put(cl)
	tr.end(s)
	tr.end(cs)
	res.wall = time.Since(t0)
	return res
}
