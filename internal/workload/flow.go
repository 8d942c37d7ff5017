package workload

import (
	"fmt"

	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/skew"
	"abred/internal/stats"
)

// flowRun executes the bulk-synchronous application on the flow engine:
// the same per-iteration shape (imbalanced compute spin, optional halo
// exchange, reductions), the same skew matrix from the same RNG stream,
// and the same call-time accounting — but every rank is a
// coll.FlowProgram position instead of a simulated process.
// Split-phase and NIC styles need engine machinery the flow model does
// not carry, and refuse loudly rather than degrade silently.
func flowRun(cfg Config, style Style) Result {
	size := len(cfg.Specs)
	if style != StyleDefault && style != StyleBypass {
		panic(fmt.Sprintf("workload: the flow engine does not model the %v style", style))
	}
	cl := cluster.New(cluster.Config{Specs: cfg.Specs, Seed: cfg.Seed,
		Topo: cfg.Topo, LPs: cfg.LPs, Engine: cluster.EngineFlow})
	defer cl.Close()

	delays := skew.Matrix(cfg.Imbalance, cl.K.NewRNG(), cfg.Iters, size)

	fc := coll.NewFlowColl(cl.FlowM, size, 0, cfg.Count)
	fc.P2PBytes = 1 // the halo swaps single-byte markers

	body := []coll.FlowStep{{Kind: coll.FlowSpin, Budget: cfg.Compute, Matrix: delays}}
	if cfg.Halo {
		body = append(body, coll.FlowStep{Kind: coll.FlowHalo})
	}
	for rd := 0; rd < cfg.RedsPerIter; rd++ {
		body = append(body, coll.FlowStep{Kind: coll.FlowReduce})
	}
	wall := fc.Run(coll.FlowProgram{
		Iters: cfg.Iters,
		AB:    style == StyleBypass,
		Body:  body,
		Tail:  []coll.FlowStep{{Kind: coll.FlowSpin, Budget: 2 * cfg.Compute}, {Kind: coll.FlowBarrier}},
	}, cl.Drain)

	// Rank 0's observed results: the flow engine does not carry data,
	// but the reduction structure is exact, so the root sees exactly
	// the analytic sums, in instance order.
	var rootResults []float64
	for it := 0; it < cfg.Iters; it++ {
		for rd := 0; rd < cfg.RedsPerIter; rd++ {
			rootResults = append(rootResults, ExpectedRootSum(size, it, rd))
		}
	}
	var signals uint64
	for _, s := range fc.Signals {
		signals += s
	}
	return Result{
		Style:       style,
		JobTime:     wall,
		ReduceCalls: stats.Summarize(fc.InCall),
		Signals:     signals,
		RootResults: rootResults,
		Events:      cl.Events(),
	}
}
