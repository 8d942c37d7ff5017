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
	"fmt"

	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/skew"
	"abred/internal/stats"
	"abred/internal/sweep"
	"abred/internal/topo"
)

// Style selects the reduction implementation the application uses.
type Style int

// Reduction styles.
const (
	StyleDefault    Style = iota // blocking MPICH reduction
	StyleBypass                  // application-bypass reduction
	StyleSplitPhase              // IReduce posted now, waited a window later
	StyleNIC                     // NIC-based reduction
)

// String implements fmt.Stringer.
func (s Style) String() string {
	switch s {
	case StyleDefault:
		return "default"
	case StyleBypass:
		return "app-bypass"
	case StyleSplitPhase:
		return "split-phase"
	case StyleNIC:
		return "nic-based"
	}
	return "?"
}

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
	// flow engine models the default and app-bypass styles only, and
	// refuses the others (coll.Program).
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
	Style       Style
	JobTime     sim.Time      // wall time until every rank finished
	ReduceCalls stats.Summary // per-rank time inside reduction calls
	Signals     uint64        // signals handled across the cluster
	RootResults []float64     // first element of each reduction, rank 0
	Events      uint64        // simulated events executed
}

// algo is the reduction a style runs.
func (s Style) algo() coll.Algo {
	switch s {
	case StyleDefault:
		return coll.AlgoBinomial
	case StyleBypass:
		return coll.AlgoAB
	case StyleSplitPhase:
		return coll.AlgoSplit
	case StyleNIC:
		return coll.AlgoNIC
	}
	panic(fmt.Sprintf("workload: unknown style %d", s))
}

// Run executes the application with the given style on cfg's engine.
// Root results are rank 0's, in instance order: coll.ExpectedRootSum of
// each (iteration, reduction).
func Run(cfg Config, style Style) Result {
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
		Iters: cfg.Iters, Count: cfg.Count, Algo: style.algo(), Window: cfg.Window,
		Body: body,
		Tail: []coll.Step{{Kind: coll.StepSpin, Budget: 2 * cfg.Compute}, {Kind: coll.StepBarrier}},
	})

	var signals uint64
	for _, s := range out.Signals {
		signals += s
	}
	return Result{
		Style:       style,
		JobTime:     wall,
		ReduceCalls: stats.Summarize(out.InCall),
		Signals:     signals,
		RootResults: out.Results,
		Events:      cl.Events(),
	}
}

// CompareParallel runs the same application under several styles across
// a worker pool and returns the results in style order: each style's run
// is an independent simulation (own kernel, own cluster, same seed), so
// the results do not depend on workers.
func CompareParallel(cfg Config, workers int, styles ...Style) []Result {
	jobs := make([]sweep.Job[Result], len(styles))
	for i, s := range styles {
		s := s
		jobs[i] = sweep.Job[Result]{Name: "workload/" + s.String(), Seed: cfg.Seed,
			Run: func() (Result, uint64) {
				r := Run(cfg, s)
				return r, r.Events
			}}
	}
	return sweep.Run("workload", jobs, workers).Values()
}
