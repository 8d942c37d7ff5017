// Package cluster assembles complete virtual clusters: a simulation
// kernel, a fabric, one NIC per node, and an SPMD launcher that runs an
// MPI program as one simulated process per node. Built clusters can be
// reset and reused across runs (see Reset and Pool): re-running a
// program on a reused cluster is byte-identical to rebuilding from
// scratch, at a fraction of the construction cost.
package cluster

import (
	"fmt"
	"strconv"

	"abred/internal/coll"
	"abred/internal/core"
	"abred/internal/fabric"
	"abred/internal/fault"
	"abred/internal/flow"
	"abred/internal/gm"
	"abred/internal/model"
	"abred/internal/mpi"
	"abred/internal/sim"
	"abred/internal/topo"
)

// Node bundles everything belonging to one cluster node. Proc, MPI and
// Engine are populated when a program starts running on the node.
type Node struct {
	ID     int
	CM     model.CostModel // shared with every node of the same hardware class
	NIC    *gm.NIC
	Proc   *sim.Proc
	MPI    *mpi.Process
	Engine *core.Engine

	cl      *Cluster
	pname   string          // proc name, built once ("rank" + ID)
	spawnFn func(*sim.Proc) // bound body method, built once (no per-Run closure)
}

// Cluster is a simulated machine room.
type Cluster struct {
	K      *sim.Kernel // kernel of LP 0 — the only kernel of a 1-LP cluster
	Costs  model.Costs
	Fabric *fabric.Fabric
	Topo   *topo.Topology // built interconnect graph; crossbar by default
	Nodes  []*Node

	// Engine identifies the simulation engine the cluster was built for.
	// A flow-engine cluster has FlowM in place of Fabric/Nodes: per-node
	// state lives in flat arrays inside the flow machine, and programs
	// drive the flow collective API instead of Run.
	Engine   Engine
	FlowM    *flow.Machine
	flowColl *coll.FlowColl // the flow ranks' state, built by the first Exec
	out      *coll.Outcome  // what Exec returns, cleared by every Exec

	// cms holds one cost-model handle per node on both engines. Nodes of
	// one hardware class share one model (model.SharedCostModels), and
	// Reset compares a Config's specs against these handles.
	cms []model.CostModel

	// Partition state: Ks holds every logical process's kernel
	// (Ks[0] == K), LPs the actual partition count after clamping to the
	// topology's pods, and lpset the window loop that drives them (a
	// plain Kernel.Run when there is one).
	Ks     []*sim.Kernel
	LPs    int
	reqLPs int     // normalized requested count; pool/Reset matching
	pmap   []int32 // node -> LP, nil when every node is on LP 0
	lpset  *sim.LPSet

	program Program   // body of the Run in progress
	state   lifecycle // one program per arm (New or Reset), none after Close
	key     poolKey   // shape key, computed once for Pool.Put
}

// lifecycle is where a cluster stands in its run contract. A run that
// panics out of the simulation stays running: processes are then parked
// mid-collective with tokens out, a state Reset was never written for,
// so Pool.Put closes such a cluster instead of pooling it.
type lifecycle uint8

const (
	armed   lifecycle = iota // built or Reset: ready for one Run or Exec
	running                  // inside the simulation, or panicked out of it
	ran                      // finished: the next run needs a Reset
	closed                   // Close shut the kernels down for good
)

// Config controls cluster construction.
type Config struct {
	Specs []model.NodeSpec // node hardware; one entry per node
	Costs model.Costs      // zero value means model.DefaultCosts
	Seed  int64            // kernel seed; reuse to reproduce a run exactly

	// Topo selects the interconnect. The zero value is the single
	// crossbar every configuration used before topologies existed; it
	// keeps the fabric on its byte-identical allocation-free path. Like
	// Specs and Costs it is a construction-time shape property: Reset
	// refuses a different topology and Pool keys on it.
	Topo topo.Spec

	// Fault describes fabric fault injection. The zero value keeps the
	// fabric perfect and the hot path byte-identical to a fault-free
	// build; anything else compiles a per-cluster fault.Plan, installs
	// the gm pool hooks, and switches every NIC to reliable delivery.
	Fault fault.Config

	// Engine selects the simulation engine: EnginePacket (the default)
	// is the full-fidelity per-packet path; EngineFlow models transfers
	// as max-min fair flows and scales to ~1M nodes. Construction-time
	// shape property: Reset refuses a mismatch and Pool keys on it.
	Engine Engine

	// LPs requests a partitioned simulation: up to LPs logical processes
	// split along the topology's pod boundaries, each with its own
	// kernel, run in parallel under conservative windows (sim.LPSet).
	// The count is clamped to the topology's pod count, so a crossbar —
	// which has one pod — always runs as one LP. 0 or 1 is the 1-LP
	// partition: one kernel, byte-identical to every build before
	// partitioning existed. Like Topo this is a construction-time shape
	// property: Reset refuses a different count and Pool keys on it.
	LPs int
}

// Validate checks a Config for construction-time contradictions,
// returning an error instead of the panic New raises. Callers holding
// flag-level input (abscale, abbench) run it first so a bad combination
// — an oversubscribed crossbar, an empty spec table, a cluster-wide
// drop rate outside [0, 1) — surfaces as a usage error, not a stack
// trace.
func (cfg Config) Validate() error {
	if len(cfg.Specs) == 0 {
		return fmt.Errorf("cluster: no node specs")
	}
	if err := cfg.Topo.Validate(); err != nil {
		return err
	}
	return fault.CheckDrop(cfg.Fault.Drop)
}

// costs returns the cost constants cfg asks for: Costs, or
// model.DefaultCosts when Costs is the zero value.
func (cfg Config) costs() model.Costs {
	if cfg.Costs == (model.Costs{}) {
		return model.DefaultCosts()
	}
	return cfg.Costs
}

// normLPs normalizes a requested LP count: 0 and 1 both mean one LP.
func normLPs(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// lpSeed derives LP i's kernel seed. LP 0 keeps the configured seed
// exactly, so pre-run NewRNG draws (skew matrices and the like, always
// taken from the first kernel) and LP 0's fault plan match a 1-LP run
// bit for bit.
func lpSeed(seed int64, i int) int64 {
	return seed ^ int64(i)*0x1E3779B97F4A7C15
}

// packetPoolCap right-sizes the per-NIC recycled-packet cap for the
// cluster scale: small clusters keep GM's deep per-NIC pool, large ones
// shrink it so 16384 NICs cannot pin a million idle packets between
// iterations. Pool depth never affects virtual time, only allocation
// traffic, so the cap is invisible to simulation results.
func packetPoolCap(n int) int {
	const budget = 256 * 1024 // cluster-wide pooled-packet ceiling
	c := budget / n
	if c > 256 {
		c = 256
	}
	if c < 8 {
		c = 8
	}
	return c
}

// New builds a cluster: kernels, fabric and NICs. MPI processes appear
// when Run starts a program. Node and NIC storage is slab-allocated
// (one backing array each) and nodes with identical hardware share one
// cost model that every per-node store holds as an 8-byte handle, so the
// cost constants scale with the number of distinct node classes, not
// with raw node count. New builds the shape and ends in arm, the step
// Reset runs too, so a fresh cluster and a reset one are the same state
// by construction.
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	tp := topo.Build(cfg.Topo, len(cfg.Specs))
	c := &Cluster{Costs: cfg.costs(), Topo: tp, Engine: cfg.Engine,
		reqLPs: normLPs(cfg.LPs), key: keyOf(cfg)}

	// Partition along pod boundaries when a parallel run was requested;
	// the clamp leaves crossbars (one pod) on one LP.
	c.LPs = 1
	if c.reqLPs > 1 {
		c.pmap, c.LPs = tp.Partition(c.reqLPs)
		if c.LPs == 1 {
			c.pmap = nil
		}
	}
	c.Ks = make([]*sim.Kernel, c.LPs)
	for i := range c.Ks {
		c.Ks[i] = sim.New(lpSeed(cfg.Seed, i))
	}
	c.K = c.Ks[0]
	c.cms = model.SharedCostModels(cfg.Specs, c.Costs)
	if cfg.Engine == EngineFlow {
		c.buildFlow()
	} else {
		c.buildPacket()
	}
	c.arm(cfg.Fault)
	return c
}

// buildPacket finishes a packet-engine cluster: the fabric over the
// topology, its LP window loop, and one NIC and Node per spec.
func (c *Cluster) buildPacket() {
	size := c.Size()
	fab := fabric.New(c.K, size, c.Costs)
	fab.SetTopology(c.Topo)
	fab.SetPartition(c.pmap, c.Ks)
	c.Fabric = fab
	c.lpset = sim.NewLPSet(c.Ks, fab.Lookahead(), fab.Exchange)

	nics := gm.NewNICs(c.Ks, c.pmap, c.cms, fab)
	fab.Reown = gm.ReownHook(nics)
	poolCap := packetPoolCap(size)
	nodes := make([]Node, size)
	c.Nodes = make([]*Node, size)
	for i := range nodes {
		n := &nodes[i]
		n.ID = i
		n.CM = c.cms[i]
		n.NIC = nics[i]
		n.NIC.SetPacketPoolCap(poolCap)
		n.cl = c
		n.pname = "rank" + strconv.Itoa(i)
		n.spawnFn = n.body
		c.Nodes[i] = n
	}
}

// arm puts the built shape in its just-built state under fault plan fc:
// the step New ends in and Reset runs after re-seeding the kernels. It
// resets the fabric or the flow machine, installs the fault plan, and
// resets the NICs (reliable exactly when fc injects faults) and the
// node state.
func (c *Cluster) arm(fc fault.Config) {
	c.state = armed
	if c.Engine == EngineFlow {
		c.FlowM.Reset()
		if err := c.FlowM.SetFaults(fc); err != nil {
			panic("cluster: " + err.Error())
		}
		return
	}
	c.Fabric.Reset()
	reliable := c.installFaults(fc)
	for _, n := range c.Nodes {
		n.NIC.Reset(reliable)
		n.Proc = nil
	}
	c.program = nil
}

// installFaults compiles and installs cfg's fault plan, reporting
// whether NICs need reliable delivery. Each cluster compiles its own
// Plans (Plans hold mutable RNG state, and the sweep engine runs
// clusters concurrently), one per LP from a derived fault seed, and
// installs the gm pool hooks so dropped and duplicated frames keep
// packet accounting balanced. Judge mutates stream state, and since
// every frame on a directed link is judged by its source's LP, each
// per-LP plan still sees its links' complete frame sequences (scripted
// Nth-frame drops stay exact).
func (c *Cluster) installFaults(fc fault.Config) bool {
	if !fc.Enabled() {
		return false
	}
	plans := make([]fabric.Injector, len(c.Ks))
	for i := range plans {
		pfc := fc
		pfc.Seed = lpSeed(fc.Seed, i)
		plans[i] = fault.New(pfc)
	}
	c.Fabric.SetInjectors(plans)
	c.Fabric.OnDrop, c.Fabric.ClonePayload = gm.FaultHooks()
	return true
}

// shapeDiff names the first construction-time property in which cfg
// differs from the cluster c was built as, "" when it is the same shape.
func (c *Cluster) shapeDiff(cfg Config) string {
	switch {
	case cfg.Engine != c.Engine:
		return fmt.Sprintf("engine %v on a %v cluster", cfg.Engine, c.Engine)
	case len(cfg.Specs) != c.Size():
		return fmt.Sprintf("%d specs on a %d-node cluster", len(cfg.Specs), c.Size())
	case cfg.costs() != c.Costs:
		return "different costs"
	case cfg.Topo.Norm() != c.Topo.Spec():
		return fmt.Sprintf("topology %v on a %v cluster", cfg.Topo, c.Topo.Spec())
	case normLPs(cfg.LPs) != c.reqLPs:
		return fmt.Sprintf("%d LPs on a %d-LP cluster", normLPs(cfg.LPs), c.reqLPs)
	}
	for i, s := range cfg.Specs {
		if s != c.cms[i].Spec() {
			return fmt.Sprintf("different spec for node %d", i)
		}
	}
	return ""
}

// Reset returns the cluster to its just-built state under cfg's seed and
// fault plan, so the next Run behaves byte-identically to a run on a
// freshly built cluster with the same Config — the guarantee the reuse
// determinism tests enforce. The hardware must match: specs and costs
// are construction-time properties (they shape cost tables and fabric
// rates), so a mismatch panics; use a Pool to route configs to matching
// clusters automatically. Seed and fault plan are run-time properties
// and may change freely. A closed cluster cannot be Reset.
func (c *Cluster) Reset(cfg Config) {
	if c.state == closed {
		panic("cluster: Reset of a closed cluster")
	}
	if d := c.shapeDiff(cfg); d != "" {
		panic("cluster: Reset with " + d)
	}
	for i, k := range c.Ks {
		k.Reset(lpSeed(cfg.Seed, i))
	}
	c.lpset.ResetStats()
	c.arm(cfg.Fault)
}

// Program is the per-rank body of an SPMD run. The world communicator
// and the node's application-bypass engine arrive ready to use.
type Program func(n *Node, w *mpi.Comm)

// body is the spawned entry point of one rank; a method rather than a
// per-Run closure so a Run on a reused cluster allocates nothing per
// node beyond the goroutine itself. A rank that ran before re-enters
// the Resets NewProcess and NewEngine end in (including the eager
// bounce-buffer pin charged to p).
func (n *Node) body(p *sim.Proc) {
	c := n.cl
	n.Proc = p
	if n.MPI == nil {
		n.MPI = mpi.NewProcess(p, n.ID, len(c.Nodes), n.NIC, n.CM)
		n.Engine = core.NewEngine(n.MPI)
	} else {
		n.MPI.Reset(p)
		n.Engine.Reset()
	}
	c.program(n, mpi.World(n.MPI))
}

// begin moves an armed cluster to running and refuses any other state
// before the run does any simulation work.
func (c *Cluster) begin() {
	switch c.state {
	case running, ran:
		panic("cluster: second run on one cluster; Reset it (or Pool.Put it and Get another) first")
	case closed:
		panic("cluster: run on a closed cluster")
	}
	c.state = running
}

// Run executes program once per node and drives the simulation to
// completion, returning the final virtual time. A cluster runs one
// program per New or Reset: a second Run or Exec without a Reset in
// between, or one after Close, panics before any simulation work.
func (c *Cluster) Run(program Program) sim.Time {
	if c.Engine == EngineFlow {
		panic("cluster: a flow-engine cluster has no per-rank processes; run a coll.Program through Exec")
	}
	c.begin()
	return c.run(program)
}

// run is Run past begin.
func (c *Cluster) run(program Program) sim.Time {
	c.program = program
	for _, n := range c.Nodes {
		c.kernelOf(n.ID).Spawn(n.pname, n.spawnFn)
	}
	end := c.lpset.Run()
	for _, n := range c.Nodes {
		if err := n.NIC.RelError(); err != nil {
			// Graceful degradation for a dead link: the reliability
			// engine already stopped the kernel; surface the per-port
			// error instead of the watchdog's opaque deadlock report.
			panic(fmt.Sprintf("cluster: %v", err))
		}
	}
	c.state = ran
	return end
}

// kernelOf returns the kernel of the LP that owns node id.
func (c *Cluster) kernelOf(id int) *sim.Kernel {
	if c.pmap == nil {
		return c.K
	}
	return c.Ks[c.pmap[id]]
}

// Events returns the number of simulated events executed, summed over
// every logical process's kernel.
func (c *Cluster) Events() uint64 {
	var ev uint64
	for _, k := range c.Ks {
		ev += k.Events()
	}
	return ev
}

// Close shuts the simulation down, unblocking and exiting every parked
// process — the daemon NIC control programs above all — so back-to-back
// simulations in one OS process don't accumulate goroutines. The cluster
// cannot run or be Reset afterwards.
func (c *Cluster) Close() {
	for _, k := range c.Ks {
		k.Shutdown()
	}
	c.state = closed
}
