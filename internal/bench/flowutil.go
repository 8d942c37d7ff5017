package bench

import (
	"fmt"

	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/sim"
	"abred/internal/stats"
)

// flowCPUUtil is the CPU-utilization benchmark on the flow engine: the
// same per-iteration shape as the packet path (skew spin, reduction,
// conservative catch-up spin, barrier), the same pre-generated skew
// matrix from the same RNG stream, and the same CPU accounting — call
// duration plus handler time landing inside the interruptible spins,
// exactly what the packet path's elapsed-minus-delays subtraction
// captures — but with every rank a coll.FlowProgram position instead
// of a simulated process.
func flowCPUUtil(cfg Config) CPUUtilResult {
	size := len(cfg.Specs)
	switch {
	case cfg.Mode == NICBased:
		panic("bench: the flow engine does not model NIC-based reduction")
	case cfg.Delay != nil:
		panic("bench: the flow engine does not model delay policies")
	case cfg.RendezvousAB:
		panic("bench: the flow engine does not model rendezvous AB")
	}
	cl, release := cfg.acquire()
	defer release()
	if cl.Engine != cluster.EngineFlow {
		panic(fmt.Sprintf("bench: flow benchmark on a %v cluster", cl.Engine))
	}
	m := cl.FlowM
	m.SampleFCT(true)

	skews := skewMatrix(cl, cfg)
	catchup := cfg.MaxSkew + estimateLatency(size, cfg.Count)

	fc := coll.NewFlowColl(m, size, cfg.Root, cfg.Count)
	if cfg.TopoAware && cfg.Mode == AppBypass && cl.Topo.Levels() > 1 {
		fc.Tree = coll.NewTopoTree(size, cfg.Root, cl.Topo.Leaf)
	}

	end := fc.Run(coll.FlowProgram{
		Iters: cfg.Iters,
		AB:    cfg.Mode == AppBypass,
		Body: []coll.FlowStep{
			{Kind: coll.FlowSpin, Matrix: skews},
			{Kind: coll.FlowReduce},
			{Kind: coll.FlowSpin, Budget: catchup},
			{Kind: coll.FlowBarrier},
		},
	}, cl.Drain)

	perNode := make([]sim.Time, size)
	var total sim.Time
	for r := range perNode {
		perNode[r] = (fc.InCall[r] + fc.Intr[r]) / sim.Time(cfg.Iters)
		total += perNode[r]
	}
	var signals uint64
	for _, s := range fc.Signals {
		signals += s
	}
	_, _, delayed, delayTotal := m.NetStats()
	_, _, expRetr := m.Tokens()
	return CPUUtilResult{
		AvgCPU:    total / sim.Time(size),
		PerNode:   perNode,
		Summary:   stats.Summarize(perNode),
		Signals:   signals,
		Events:    cl.Events(),
		Rel:       RelTotals{Retransmits: uint64(expRetr + 0.5)},
		LinkWaits: delayed,
		LinkWait:  delayTotal,
		Elapsed:   end,
		FCT:       stats.Summarize(m.FCTs()),
	}
}
