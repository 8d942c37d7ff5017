// Package workload models the application-based evaluation the paper
// names as future work (§VII: "we also intend to perform
// application-based evaluations to better understand how
// application-bypass solutions perform under real loads").
//
// The model is a bulk-synchronous scientific application: every rank
// iterates (imbalanced compute → optional halo exchange → one or more
// small reductions), the workload profile Moody et al. (ref [9])
// measured — 95% of reductions on at most three elements. The runner
// executes the same program with each reduction implementation and
// reports job completion time, per-rank time spent inside reduction
// calls, and signal counts.
package workload

import (
	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/core"
	"abred/internal/model"
	"abred/internal/mpi"
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
	// flow engine models the default and app-bypass styles only.
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

// Run executes the application with the given style.
func Run(cfg Config, style Style) Result {
	cfg.defaults()
	size := len(cfg.Specs)
	if size < 2 {
		panic("workload: need at least two ranks")
	}
	if cfg.Engine == cluster.EngineFlow {
		return flowRun(cfg, style)
	}
	cl := cluster.New(cluster.Config{Specs: cfg.Specs, Seed: cfg.Seed,
		Topo: cfg.Topo, LPs: cfg.LPs})
	defer cl.Close()

	delays := skew.Matrix(cfg.Imbalance, cl.K.NewRNG(), cfg.Iters, size)
	inCall := make([]sim.Time, size)
	// Per-rank signal counts, summed after the run: rank closures may
	// execute on different LP goroutines under a partitioned kernel.
	sigs := make([]uint64, size)
	var rootResults []float64

	wall := cl.Run(func(n *cluster.Node, w *mpi.Comm) {
		rank := n.ID
		in := make([]byte, cfg.Count*8)
		out := make([]byte, cfg.Count*8)
		var futures []*futureSlot
		var calls sim.Time

		for it := 0; it < cfg.Iters; it++ {
			n.Proc.SpinInterruptible(cfg.Compute + delays[it][rank])
			if cfg.Halo {
				haloExchange(w, it)
			}
			for rd := 0; rd < cfg.RedsPerIter; rd++ {
				val := float64(rank + it + rd)
				copy(in, mpi.Float64sToBytes([]float64{val}))
				t0 := n.Proc.Now()
				switch style {
				case StyleDefault:
					coll.Reduce(w, in, out, cfg.Count, mpi.Float64, mpi.OpSum, 0)
				case StyleBypass:
					n.Engine.Reduce(w, in, out, cfg.Count, mpi.Float64, mpi.OpSum, 0)
				case StyleNIC:
					n.Engine.NICReduce(w, in, out, cfg.Count, mpi.Float64, mpi.OpSum, 0)
				case StyleSplitPhase:
					slot := &futureSlot{out: make([]byte, cfg.Count*8)}
					slot.req = n.Engine.IReduce(w, in, slot.out, cfg.Count, mpi.Float64, mpi.OpSum, 0)
					futures = append(futures, slot)
					// Harvest anything older than the window.
					for len(futures) > cfg.Window*cfg.RedsPerIter {
						s := futures[0]
						futures = futures[1:]
						s.req.Wait()
						if rank == 0 {
							rootResults = append(rootResults, mpi.BytesToFloat64s(s.out)[0])
						}
					}
				}
				if rank == 0 && style != StyleSplitPhase {
					// A blocking call's result is in out when it returns.
					rootResults = append(rootResults, mpi.BytesToFloat64s(out)[0])
				}
				calls += n.Proc.Now() - t0
			}
		}
		for _, s := range futures {
			s.req.Wait()
			if rank == 0 {
				rootResults = append(rootResults, mpi.BytesToFloat64s(s.out)[0])
			}
		}
		n.Proc.SpinInterruptible(2 * cfg.Compute)
		coll.Barrier(w)
		inCall[rank] = calls
		sigs[rank] = n.Engine.Metrics.SignalsHandled
	})

	var signals uint64
	for _, s := range sigs {
		signals += s
	}
	return Result{
		Style:       style,
		JobTime:     wall,
		ReduceCalls: stats.Summarize(inCall),
		Signals:     signals,
		RootResults: rootResults,
		Events:      cl.Events(),
	}
}

// futureSlot pairs a split-phase request with its result buffer.
type futureSlot struct {
	req *core.Request
	out []byte
}

// haloExchange swaps one value with both neighbours, even ranks sending
// first.
func haloExchange(w *mpi.Comm, iter int) {
	rank, size := w.Rank(), w.Size()
	tag := int32(1<<16 | iter)
	buf := []byte{byte(iter)}
	rbuf := make([]byte, 1)
	send := func() {
		if rank > 0 {
			w.Send(rank-1, tag, buf)
		}
		if rank < size-1 {
			w.Send(rank+1, tag, buf)
		}
	}
	recv := func() {
		if rank > 0 {
			w.Recv(rank-1, tag, rbuf)
		}
		if rank < size-1 {
			w.Recv(rank+1, tag, rbuf)
		}
	}
	if rank%2 == 0 {
		send()
		recv()
	} else {
		recv()
		send()
	}
}

// ExpectedRootSum returns the exact reduction result for instance k of
// the workload (iteration it, reduction rd within it): sum over ranks
// of rank+it+rd.
func ExpectedRootSum(size, it, rd int) float64 {
	var sum float64
	for r := 0; r < size; r++ {
		sum += float64(r + it + rd)
	}
	return sum
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
