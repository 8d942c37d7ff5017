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
	"fmt"
	"time"

	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/core"
	"abred/internal/fault"
	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/skew"
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

// algo is the reduction a mode runs.
func (m Mode) algo() coll.Algo {
	switch m {
	case NonAppBypass:
		return coll.AlgoBinomial
	case AppBypass:
		return coll.AlgoAB
	case NICBased:
		return coll.AlgoNIC
	}
	panic(fmt.Sprintf("bench: unknown mode %d", m))
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
	// flow-level engine. The flow engine refuses knobs it cannot model
	// at committed fidelity (NIC-based reduction, delay policies,
	// rendezvous AB; see coll.Program).
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

// relTotals sums the counters after a run. The flow engine models loss
// as expected retransmissions and reports nothing else.
func relTotals(cl *cluster.Cluster) RelTotals {
	if cl.FlowM != nil {
		_, _, expRetr := cl.FlowM.Tokens()
		return RelTotals{Retransmits: uint64(expRetr + 0.5)}
	}
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

// CPUUtil runs the CPU-utilization microbenchmark on either engine: one
// program of skew spin, reduction, catch-up spin and barrier, whose
// per-rank CPU is the time inside the reduction call plus the handler
// time that landed inside the spins — exactly the paper's elapsed time
// minus the two delays.
func CPUUtil(cfg Config) CPUUtilResult {
	cfg.defaults()
	size := len(cfg.Specs)
	if size < 1 {
		panic("bench: empty cluster")
	}
	cl, release := cfg.acquire()
	defer release()

	prog := coll.Program{
		Iters: cfg.Iters, Root: cfg.Root, Count: cfg.Count, Algo: cfg.Mode.algo(),
		Body: []coll.Step{
			// Skews come from the cluster's first kernel, so a given
			// (seed, size, iters) skews both engines identically.
			{Kind: coll.StepSpin, Matrix: skew.Matrix(skew.Uniform{Max: cfg.MaxSkew}, cl.K.NewRNG(), cfg.Iters, size)},
			{Kind: coll.StepReduce},
			{Kind: coll.StepSpin, Budget: cfg.MaxSkew + coll.LatencyBound(size, cfg.Count, 150*time.Microsecond)},
			{Kind: coll.StepBarrier},
		},
	}
	if cfg.Mode == AppBypass {
		prog.Delay = cfg.Delay
		prog.RendezvousAB = cfg.RendezvousAB
		// The hierarchy-aware tree is a pure function of (size, root,
		// leaf assignment); built once, shared read-only by every rank.
		if cfg.TopoAware && cl.Topo.Levels() > 1 {
			prog.Tree = coll.NewTopoTree(size, cfg.Root, cl.Topo.Leaf)
		}
	}
	out, end := cl.Exec(prog)

	perNode := make([]sim.Time, size)
	var total sim.Time
	var signals uint64
	for r := range perNode {
		perNode[r] = (out.InCall[r] + out.Intr[r]) / sim.Time(cfg.Iters)
		total += perNode[r]
		signals += out.Signals[r]
	}
	waits, waitTime := cl.LinkStats()
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
		FCT:       stats.Summarize(out.FCT),
	}
}
