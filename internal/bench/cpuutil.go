// Package bench implements the paper's two microbenchmarks (§VI) on the
// simulated cluster, plus the sweep drivers that regenerate every figure
// of the evaluation section.
//
// CPU-utilization benchmark (per the paper): within each iteration a
// node starts its timer, busy-spins a random skew delay in [0, MaxSkew],
// performs the reduction, busy-spins a conservative catch-up delay, and
// stops the timer. Skew and catch-up are subtracted from the elapsed
// time; what remains is the CPU consumed by the reduction — including
// polling inside MPI_Reduce (non-AB) and signal handlers that interrupt
// the delay loops (AB), because the delay spins are interruptible, just
// like the paper's busy loops.
//
// Latency benchmark (per the paper): without skew, timing starts just
// before the node farthest from the root enters the reduction; when the
// root completes it sends a notification to that node, which stops the
// clock and subtracts the one-way latency of the notification message.
package bench

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/core"
	"abred/internal/fault"
	"abred/internal/model"
	"abred/internal/mpi"
	"abred/internal/sim"
	"abred/internal/stats"
	"abred/internal/topo"
)

// Mode selects the reduction implementation under test.
type Mode int

// Benchmark modes.
const (
	NonAppBypass Mode = iota // default MPICH binomial reduction
	AppBypass                // the paper's application-bypass reduction
	NICBased                 // NIC-based reduction (future-work extension)
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case NonAppBypass:
		return "nab"
	case AppBypass:
		return "ab"
	case NICBased:
		return "nic"
	}
	return "?"
}

// ParseMode parses a mode name as it appears in flags and scenario
// specs — the inverse of String.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "nab":
		return NonAppBypass, nil
	case "ab":
		return AppBypass, nil
	case "nic":
		return NICBased, nil
	}
	return NonAppBypass, fmt.Errorf("unknown mode %q (nab|ab|nic)", s)
}

// Config parameterizes one benchmark run.
type Config struct {
	Specs   []model.NodeSpec
	Count   int // elements per message (double words)
	Mode    Mode
	MaxSkew sim.Time
	Iters   int
	Seed    int64
	Delay   core.DelayPolicy // §IV-E heuristic; nil = no delay
	Root    int
	Costs   *model.Costs // nil = model.DefaultCosts (sensitivity studies)

	// Fault injects fabric faults (and reliable GM delivery); the zero
	// value keeps the fabric perfect.
	Fault fault.Config

	// Topo selects the interconnect; the zero value is the historical
	// single crossbar.
	Topo topo.Spec

	// TopoAware builds a topology-aware reduction tree (coll.TopoTree)
	// and installs it on every engine, so AppBypass clusters children
	// under their leaf switch before crossing uplinks. Ignored on the
	// crossbar (one switch — there is no hierarchy to exploit) and in
	// NonAppBypass mode.
	TopoAware bool

	// RendezvousAB opts the engines into the §V-B large-message bypass
	// extension (AppBypass mode only).
	RendezvousAB bool

	// LPs partitions the simulation into up to LPs logical processes
	// along topology pod boundaries and runs them in parallel (see
	// cluster.Config.LPs). 0 or 1 is the monolithic kernel.
	LPs int

	// Engine selects the simulation engine (cluster.Config.Engine):
	// packet is the default full-fidelity path, flow the large-scale
	// flow-level engine. The flow path refuses knobs it cannot model at
	// committed fidelity (NIC-based reduction, delay policies,
	// rendezvous AB).
	Engine cluster.Engine

	// Pool, when set, sources the simulated cluster from a reuse pool
	// instead of building it from scratch: the cluster is Reset under
	// this config's seed and fault plan (byte-identical to a fresh
	// build, enforced by the determinism tests) and returned to the
	// pool afterwards. Nil preserves the build-per-run behavior.
	Pool *cluster.Pool
}

// acquire returns the cluster to benchmark on and a release function:
// Get/Put against the pool when one is set, New/Close otherwise.
func (c *Config) acquire() (*cluster.Cluster, func()) {
	cc := c.clusterConfig()
	if c.Pool != nil {
		cl := c.Pool.Get(cc)
		return cl, func() { c.Pool.Put(cl) }
	}
	cl := cluster.New(cc)
	return cl, cl.Close
}

// clusterConfig assembles the cluster construction parameters.
func (c *Config) clusterConfig() cluster.Config {
	cc := cluster.Config{Specs: c.Specs, Seed: c.Seed, Fault: c.Fault, Topo: c.Topo, LPs: c.LPs, Engine: c.Engine}
	if c.Costs != nil {
		cc.Costs = *c.Costs
	}
	return cc
}

func (c *Config) defaults() {
	if c.Iters == 0 {
		c.Iters = 200
	}
	if c.Count == 0 {
		c.Count = 4
	}
	if c.Seed == 0 {
		c.Seed = 20030701 // CLUSTER 2003
	}
}

// RelTotals aggregates fault and reliability activity across a whole
// cluster run; all zeros on a perfect fabric.
type RelTotals struct {
	Dropped     uint64 // frames the fault injector discarded
	Duplicated  uint64 // extra copies the fault injector delivered
	Retransmits uint64 // data packets GM resent after a timeout
	AcksSent    uint64 // standalone cumulative acks on the wire
	DupsDropped uint64 // duplicate/out-of-order arrivals GM discarded
	Overflow    uint64 // sends past the retransmit-ring bound
	RetriedMsgs uint64 // retried packets that reached a progress engine
}

// relTotals sums the counters after a run.
func relTotals(cl *cluster.Cluster) RelTotals {
	var t RelTotals
	t.Dropped, t.Duplicated = cl.Fabric.FaultStats()
	for _, n := range cl.Nodes {
		s := n.NIC.Stats()
		t.Retransmits += s.Retransmits
		t.AcksSent += s.RelAcksSent
		t.DupsDropped += s.RelDupsDropped
		t.Overflow += s.RelOverflow
		if n.MPI != nil {
			t.RetriedMsgs += n.MPI.Stats.RetriedMsgs
		}
	}
	return t
}

// CPUUtilResult is one CPU-utilization measurement.
type CPUUtilResult struct {
	AvgCPU  sim.Time // mean over nodes and iterations (the paper's metric)
	PerNode []sim.Time
	Summary stats.Summary
	Signals uint64    // total signals handled across the cluster
	Events  uint64    // simulated events executed (simulation cost)
	Rel     RelTotals // fault/reliability activity (zero on a clean fabric)

	// Uplink contention on a routed topology, zero on the crossbar:
	// link occupancies that queued behind a busy inter-switch link, and
	// the total time so spent. On the flow engine these count flows
	// whose transfer stretched past the uncontended serialization time.
	LinkWaits uint64
	LinkWait  sim.Time

	// Elapsed is the virtual time the whole run took — the quantity the
	// flow/packet cross-validation pins alongside AvgCPU.
	Elapsed sim.Time

	// FCT summarizes the flow-completion-time distribution (flow engine
	// only; zero value on the packet path).
	FCT stats.Summary
}

// CPUUtil runs the CPU-utilization microbenchmark.
func CPUUtil(cfg Config) CPUUtilResult {
	cfg.defaults()
	size := len(cfg.Specs)
	if size < 1 {
		panic("bench: empty cluster")
	}
	if cfg.Engine == cluster.EngineFlow {
		return flowCPUUtil(cfg)
	}
	cl, release := cfg.acquire()
	defer release()

	skews := skewMatrix(cl, cfg)

	// Conservative reduction-latency estimate for the catch-up delay:
	// depth * (per-hop cost) with generous slack, like the paper's
	// "conservative estimate of the maximum reduction latency".
	lat := estimateLatency(size, cfg.Count)
	catchup := cfg.MaxSkew + lat

	perNode := make([]sim.Time, size)
	// Per-rank signal counts, summed after the run: rank closures may
	// execute on different LP goroutines, so a shared accumulator would
	// race under a partitioned kernel.
	sigs := make([]uint64, size)

	// The hierarchy-aware tree is a pure function of (size, root, leaf
	// assignment); built once, shared read-only by every rank.
	var tree *coll.TopoTree
	if cfg.TopoAware && cfg.Mode == AppBypass && cl.Topo.Levels() > 1 {
		tree = coll.NewTopoTree(size, cfg.Root, cl.Topo.Leaf)
	}

	end := cl.Run(func(n *cluster.Node, w *mpi.Comm) {
		if cfg.Mode == AppBypass && cfg.Delay != nil {
			n.Engine.SetDelayPolicy(cfg.Delay)
		}
		if cfg.Mode == AppBypass && cfg.RendezvousAB {
			n.Engine.EnableRendezvousAB()
		}
		if tree != nil {
			n.Engine.SetTopoTree(tree)
		}
		in := make([]byte, cfg.Count*8)
		for i := 0; i < cfg.Count; i++ {
			binary.LittleEndian.PutUint64(in[i*8:], math.Float64bits(float64(n.ID+i)))
		}
		out := make([]byte, cfg.Count*8)

		var cpu sim.Time
		for it := 0; it < cfg.Iters; it++ {
			skew := skews[it][n.ID]
			t0 := n.Proc.Now()
			n.Proc.SpinInterruptible(skew)
			reduceOnce(cfg.Mode, n, w, in, out, cfg.Count, cfg.Root)
			n.Proc.SpinInterruptible(catchup)
			elapsed := n.Proc.Now() - t0
			cpu += elapsed - skew - catchup
			coll.Barrier(w)
		}
		perNode[n.ID] = cpu / sim.Time(cfg.Iters)
		sigs[n.ID] = n.Engine.Metrics.SignalsHandled
	})

	var total sim.Time
	for _, c := range perNode {
		total += c
	}
	var signals uint64
	for _, s := range sigs {
		signals += s
	}
	waits, waitTime := cl.Fabric.TopoStats()
	return CPUUtilResult{
		AvgCPU:    total / sim.Time(size),
		PerNode:   perNode,
		Summary:   stats.Summarize(perNode),
		Signals:   signals,
		Events:    cl.Events(),
		Rel:       relTotals(cl),
		LinkWaits: waits,
		LinkWait:  waitTime,
		Elapsed:   end,
	}
}

// skewMatrix pre-generates the per-(iteration, rank) skews from the
// cluster's first kernel, so results are independent of execution
// interleaving and a given (seed, size, iters) skews both engines
// identically. One flat slab, sliced per iteration: 2 allocations
// instead of Iters+1.
func skewMatrix(cl *cluster.Cluster, cfg Config) [][]sim.Time {
	size := len(cfg.Specs)
	rng := cl.K.NewRNG()
	flat := make([]sim.Time, cfg.Iters*size)
	skews := make([][]sim.Time, cfg.Iters)
	for it := range skews {
		skews[it] = flat[it*size : (it+1)*size]
		if cfg.MaxSkew > 0 {
			for r := range skews[it] {
				skews[it][r] = sim.Time(rng.Int63n(int64(cfg.MaxSkew) + 1))
			}
		}
	}
	return skews
}

// reduceOnce dispatches to the implementation under test.
func reduceOnce(mode Mode, n *cluster.Node, w *mpi.Comm, in, out []byte, count, root int) {
	switch mode {
	case NonAppBypass:
		coll.Reduce(w, in, out, count, mpi.Float64, mpi.OpSum, root)
	case AppBypass:
		n.Engine.Reduce(w, in, out, count, mpi.Float64, mpi.OpSum, root)
	case NICBased:
		n.Engine.NICReduce(w, in, out, count, mpi.Float64, mpi.OpSum, root)
	default:
		panic(fmt.Sprintf("bench: unknown mode %d", mode))
	}
}

// estimateLatency returns a deliberately generous bound on reduction
// latency for sizing catch-up delays.
func estimateLatency(size, count int) sim.Time {
	depth := coll.Depth(size)
	if depth == 0 {
		depth = 1
	}
	perHop := 25*time.Microsecond + time.Duration(count)*100*time.Nanosecond
	return sim.Time(depth)*perHop + 150*time.Microsecond
}
