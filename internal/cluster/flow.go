package cluster

import (
	"fmt"

	"abred/internal/flow"
	"abred/internal/sim"
)

// Engine selects the simulation engine a cluster is built around.
type Engine uint8

// Engines. EnginePacket is the historical full-fidelity path and the
// zero value, so every existing Config keeps its meaning; EngineFlow is
// the flow-level hybrid-fidelity engine (max-min fair transfers,
// arithmetic host clocks) that scales the same API to ~1M nodes.
const (
	EnginePacket Engine = iota
	EngineFlow
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EnginePacket:
		return "packet"
	case EngineFlow:
		return "flow"
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// ParseEngine parses a -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "packet":
		return EnginePacket, nil
	case "flow":
		return EngineFlow, nil
	}
	return EnginePacket, fmt.Errorf("unknown engine %q (packet|flow)", s)
}

// buildFlow finishes a flow-engine cluster: the flow machine over the
// topology graph, holding the cluster's cost-model handles — no fabric,
// NICs or per-node structs, so construction and footprint stay flat
// arrays even at a million nodes. The machine is sharded over the
// cluster's LPs (the same pod partition as the packet engine) and the
// shards couple through sim.LPSet windows.
func (c *Cluster) buildFlow() {
	m := flow.NewMachines(c.Ks, c.pmap, c.Topo, c.cms, c.Costs)
	c.FlowM = m
	par := m.Par()
	c.lpset = sim.NewLPSet(c.Ks, par.Lookahead(), par.Exchange)
}

// Size returns the node count, engine-independent.
func (c *Cluster) Size() int { return len(c.cms) }

// LinkStats returns uplink contention on a routed topology, zero on the
// crossbar: on the packet engine, link occupancies that queued behind a
// busy inter-switch link and the time so spent; on the flow engine,
// flows whose transfer stretched past the uncontended serialization
// time and the total stretch.
func (c *Cluster) LinkStats() (waits uint64, wait sim.Time) {
	if c.FlowM != nil {
		_, _, waits, wait = c.FlowM.NetStats()
		return waits, wait
	}
	return c.Fabric.TopoStats()
}
