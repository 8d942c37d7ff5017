// Command abapp runs the application-based evaluation the paper lists
// as future work (§VII): a bulk-synchronous synthetic application —
// imbalanced compute, nearest-neighbour halo exchange, and the small
// reductions typical of scientific codes (Moody et al., ref [9]) — once
// per reduction implementation, and compares job time, time spent
// inside reduction calls, and signal counts.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/model"
	"abred/internal/skew"
	"abred/internal/stats"
	"abred/internal/topo"
	"abred/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 32, "cluster size (paper's interlaced heterogeneous mix)")
	iters := flag.Int("iters", 100, "bulk-synchronous iterations")
	compute := flag.Duration("compute", 200*time.Microsecond, "baseline compute per iteration")
	imbalance := flag.Duration("imbalance", 400*time.Microsecond, "imbalance scale")
	dist := flag.String("dist", "uniform", "imbalance distribution: uniform, exp, pareto, straggler, none")
	count := flag.Int("count", 2, "reduction elements (scientific codes: 1-3)")
	reds := flag.Int("reds", 2, "reductions per iteration")
	window := flag.Int("window", 3, "split-phase result lag window (iterations)")
	halo := flag.Bool("halo", true, "nearest-neighbour exchange each iteration")
	seed := flag.Int64("seed", 20030701, "simulation seed")
	parallel := flag.Int("parallel", 0, "run the styles on a worker pool (0 = GOMAXPROCS, 1 = serial)")
	engineFlag := flag.String("engine", "packet", "simulation engine: packet (full fidelity) or flow (large-scale; default and app-bypass styles only)")
	topoFlag := flag.String("topo", "", "routed fabric spec (e.g. fattree:16; \"\" = crossbar)")
	flag.Parse()

	// A bad flag value is a usage error: stderr and exit status 2, so a
	// script's `|| exit 1` sees a typo.
	bad := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "abapp: "+format+"\n", args...)
		os.Exit(2)
	}
	for _, f := range []struct {
		name     string
		v, floor int
	}{{"nodes", *nodes, 2}, {"iters", *iters, 1}, {"count", *count, 1}, {"reds", *reds, 1}, {"window", *window, 1}} {
		if f.v < f.floor {
			bad("-%s %d: must be at least %d", f.name, f.v, f.floor)
		}
	}
	engine, err := cluster.ParseEngine(*engineFlag)
	if err != nil {
		bad("%v", err)
	}
	// The style filter below asks FlowRefusal per style; a count the flow
	// engine refuses would drop them all, so it is a flag error here.
	eager := model.DefaultCosts().EagerThreshold
	if err := (&coll.Program{Count: *count}).FlowRefusal(eager); engine == cluster.EngineFlow && err != nil {
		bad("-count %d: %v", *count, err)
	}
	var ts topo.Spec
	if *topoFlag != "" {
		ts, err = topo.ParseSpec(*topoFlag)
		if err != nil {
			bad("bad -topo %q: %v", *topoFlag, err)
		}
	}

	var d skew.Dist
	switch *dist {
	case "uniform":
		d = skew.Uniform{Max: *imbalance}
	case "exp":
		d = skew.Exponential{Mean: *imbalance / 2}
	case "pareto":
		d = skew.Pareto{Min: *imbalance / 20, Max: 8 * *imbalance, Alpha: 1.3}
	case "straggler":
		d = skew.Straggler{P: *nodes, Delay: *imbalance}
	case "none":
		d = skew.None{}
	default:
		bad("unknown distribution %q", *dist)
	}

	cfg := workload.Config{
		Specs:       model.PaperCluster(*nodes),
		Iters:       *iters,
		Compute:     *compute,
		Imbalance:   d,
		Halo:        *halo,
		Count:       *count,
		RedsPerIter: *reds,
		Window:      *window,
		Seed:        *seed,
		Topo:        ts,
		Engine:      engine,
	}

	fmt.Printf("synthetic application: %d nodes, %d iterations, compute %v + %s imbalance,\n",
		*nodes, *iters, *compute, d.Name())
	fmt.Printf("%d x %d-element reductions per iteration, halo=%v, %v engine\n\n", *reds, *count, *halo, engine)

	// The reductions the engine models, each under its style label.
	var algos []coll.Algo
	var labels []string
	for _, s := range []struct {
		algo  coll.Algo
		label string
	}{
		{coll.AlgoBinomial, "default"},
		{coll.AlgoAB, "app-bypass"},
		{coll.AlgoSplit, "split-phase"},
		{coll.AlgoNIC, "nic-based"},
	} {
		if engine == cluster.EngineFlow && (&coll.Program{Algo: s.algo, Count: *count}).FlowRefusal(eager) != nil {
			continue
		}
		algos, labels = append(algos, s.algo), append(labels, s.label)
	}
	results := workload.CompareParallel(cfg, *parallel, algos...)

	base := results[0]
	fmt.Printf("%-14s %14s %10s %22s %10s\n", "style", "job time", "speedup", "reduce calls (mean)", "signals")
	for i, r := range results {
		fmt.Printf("%-14s %14v %9.2fx %22v %10d\n",
			labels[i],
			r.JobTime.Round(time.Microsecond),
			float64(base.JobTime)/float64(r.JobTime),
			r.ReduceCalls.Mean.Round(time.Microsecond),
			r.Signals)
	}

	fmt.Printf("\nper-rank time inside reduction calls, default vs app-bypass:\n")
	fmt.Printf("  default:    mean %v  p95 %v  max %v\n",
		stats.Micros(base.ReduceCalls.Mean)+"µs", stats.Micros(base.ReduceCalls.P95)+"µs", stats.Micros(base.ReduceCalls.Max)+"µs")
	ab := results[1]
	fmt.Printf("  app-bypass: mean %v  p95 %v  max %v\n",
		stats.Micros(ab.ReduceCalls.Mean)+"µs", stats.Micros(ab.ReduceCalls.P95)+"µs", stats.Micros(ab.ReduceCalls.Max)+"µs")

	ok := true
	for i := 1; i < len(results); i++ {
		if len(results[i].RootResults) != len(base.RootResults) {
			ok = false
			continue
		}
		for j := range base.RootResults {
			if results[i].RootResults[j] != base.RootResults[j] {
				ok = false
			}
		}
	}
	fmt.Printf("\nall styles computed identical reduction results: %v\n", ok)
}
