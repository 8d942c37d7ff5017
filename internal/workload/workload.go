// Package workload models the application-based evaluation the paper
// names as future work (§VII: "we also intend to perform
// application-based evaluations to better understand how
// application-bypass solutions perform under real loads").
//
// The model is a bulk-synchronous scientific application: every rank
// iterates (imbalanced compute → optional halo exchange → one or more
// small reductions), the workload profile Moody et al. (ref [9])
// measured — 95% of reductions on at most three elements. The runner
// executes the same coll.Program with each reduction implementation and
// reports job completion time, per-rank time spent inside reduction
// calls, and signal counts.
package workload

import (
	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/skew"
	"abred/internal/stats"
	"abred/internal/sweep"
	"abred/internal/topo"
)

// Style is the reduction an application or tenant job runs, by its one
// name (coll.Algo).
type Style = coll.Algo

// StyleBypass is the application-bypass reduction.
const StyleBypass = coll.AlgoAB

// Config describes the synthetic application.
type Config struct {
	Specs       []model.NodeSpec
	Iters       int       // bulk-synchronous iterations
	Compute     sim.Time  // baseline compute per iteration
	Imbalance   skew.Dist // extra compute drawn per rank per iteration
	Halo        bool      // nearest-neighbour exchange each iteration
	Count       int       // reduction elements (Moody et al.: ≤ 3 typical)
	RedsPerIter int       // reductions per iteration
	Window      int       // split-phase: iterations a result may lag
	Seed        int64
	Topo        topo.Spec // interconnect; zero value = single crossbar
	LPs         int       // parallel logical processes (see cluster.Config.LPs)

	// Engine selects the simulation engine (cluster.Config.Engine). The
	// flow engine models the binomial and app-bypass reductions only, and
	// refuses the others (coll.Program.FlowRefusal).
	Engine cluster.Engine
}

func (c *Config) defaults() {
	if c.Iters == 0 {
		c.Iters = 50
	}
	if c.Count == 0 {
		c.Count = 2
	}
	if c.RedsPerIter == 0 {
		c.RedsPerIter = 1
	}
	if c.Window == 0 {
		c.Window = 2
	}
	if c.Imbalance == nil {
		c.Imbalance = skew.None{}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Result summarizes one application run.
type Result struct {
	Algo        coll.Algo
	JobTime     sim.Time      // wall time until every rank finished
	ReduceCalls stats.Summary // per-rank time inside reduction calls
	Signals     uint64        // signals handled across the cluster
	RootResults []float64     // first element of each reduction, rank 0
	Events      uint64        // simulated events executed
}

// Run executes the application with the given reduction on cfg's engine.
// Root results are rank 0's, in instance order: coll.ExpectedRootSum of
// each (iteration, reduction).
func Run(cfg Config, algo coll.Algo) Result {
	cfg.defaults()
	size := len(cfg.Specs)
	if size < 2 {
		panic("workload: need at least two ranks")
	}
	cl := cluster.New(cluster.Config{Specs: cfg.Specs, Seed: cfg.Seed,
		Topo: cfg.Topo, LPs: cfg.LPs, Engine: cfg.Engine})
	defer cl.Close()

	body := []coll.Step{{Kind: coll.StepSpin, Budget: cfg.Compute,
		Matrix: skew.Matrix(cfg.Imbalance, cl.K.NewRNG(), cfg.Iters, size)}}
	if cfg.Halo {
		body = append(body, coll.Step{Kind: coll.StepHalo})
	}
	for rd := 0; rd < cfg.RedsPerIter; rd++ {
		body = append(body, coll.Step{Kind: coll.StepReduce})
	}
	out, wall := cl.Exec(coll.Program{
		Iters: cfg.Iters, Count: cfg.Count, Algo: algo, Window: cfg.Window,
		Body: body,
		Tail: []coll.Step{{Kind: coll.StepSpin, Budget: 2 * cfg.Compute}, {Kind: coll.StepBarrier}},
	})

	var signals uint64
	for _, s := range out.Signals {
		signals += s
	}
	return Result{
		Algo:        algo,
		JobTime:     wall,
		ReduceCalls: stats.Summarize(out.InCall),
		Signals:     signals,
		// The cluster's own slice, which only its next Exec would
		// reuse; cl is closed on return and never runs again.
		RootResults: out.Results,
		Events:      cl.Events(),
	}
}

// CompareParallel runs the same application under several reductions
// across a worker pool and returns the results in argument order: each
// run is an independent simulation (own kernel, own cluster, same
// seed), so the results do not depend on workers.
func CompareParallel(cfg Config, workers int, algos ...coll.Algo) []Result {
	jobs := make([]func() Result, len(algos))
	for i, a := range algos {
		jobs[i] = func() Result { return Run(cfg, a) }
	}
	return sweep.Run(jobs, workers)
}
