// Command abbench regenerates the evaluation figures of "Application-
// Bypass Reduction for Large-Scale Clusters" (CLUSTER 2003) on the
// simulated cluster.
//
// Usage:
//
//	abbench [-fig 6|7|8|9|10|loss|topo|tenancy|all] [-ablations] [-iters N] [-seed N]
//	        [-loss P] [-faultseed N] [-topo SPEC] [-parallel N]
//	        [-cpuprofile FILE] [-memprofile FILE] [-csv]
//
// Each figure prints as an aligned table; -csv switches to CSV for
// plotting. Every figure is a grid of independent simulations, so
// -parallel N runs its cells on an N-worker pool (0 means GOMAXPROCS),
// each cell drawing its cluster from a reuse pool; the printed tables
// are virtual time, byte-identical for every worker count and to fresh
// builds (the determinism tests enforce both). Wall-clock numbers come
// from `go run ./benchmark`, not from here. The defaults (200
// iterations) give stable virtual-time averages in seconds of wall
// time; the paper's 10,000 iterations also work if you have the
// patience.
//
// -loss P makes the fabric drop each frame with probability P and
// switches GM to reliable delivery; -faultseed seeds the dedicated
// fault stream (same seed, same drops — independent of -seed). -fig
// loss runs the ab-vs-nab loss sweep over the paper's 0.1–5% range
// instead of a uniform rate, so it refuses -loss.
//
// -seed, -iters, -loss, -faultseed and -topo are one run-wide
// configuration that every figure and ablation inherits; a combination
// the model does not support exits 2 and names the flag.
//
// -fig tenancy runs the multi-tenant figure instead: 2–8 concurrent
// jobs with Poisson arrivals on an oversubscribed fat tree, each job
// reducing on its own sub-communicator, random scatter vs greedy
// locality packing (a routed -topo picks the fabric).
//
// -topo SPEC (crossbar, fattree:K or leafspine:R) replaces the ideal
// single crossbar with a routed multi-stage fabric for every figure;
// frames pay per-hop latency and queue at shared uplinks. -fig topo
// runs the crossbar-vs-fat-tree comparison sweep instead, including
// bypass with the topology-aware reduction tree.
//
// -cpuprofile/-memprofile write standard pprof profiles of the whole
// run.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"abred/internal/bench"
	"abred/internal/cluster"
	"abred/internal/fault"
	"abred/internal/prof"
	"abred/internal/sweep"
	"abred/internal/topo"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 6, 7, 8, 9, 10, loss, topo, tenancy or all")
	ablations := flag.Bool("ablations", false, "also run the delay-heuristic and NIC-reduction studies")
	iters := flag.Int("iters", 200, "benchmark iterations per data point")
	seed := flag.Int64("seed", 20030701, "simulation seed (results are exactly reproducible per seed)")
	loss := flag.Float64("loss", 0, "frame-drop probability on every link (enables GM reliable delivery)")
	faultSeed := flag.Int64("faultseed", 0, "seed of the dedicated fault-decision stream")
	topoFlag := flag.String("topo", "crossbar", "interconnect: crossbar, fattree:K or leafspine:R")
	parallel := flag.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = serial)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flag.Parse()
	if *iters < 1 {
		fmt.Fprintf(os.Stderr, "abbench: -iters %d: must be at least 1\n", *iters)
		os.Exit(2)
	}
	if fault.CheckDrop(*loss) != nil {
		fmt.Fprintf(os.Stderr, "abbench: -loss %v outside [0, 1)\n", *loss)
		os.Exit(2)
	}
	if *fig == "loss" && *loss != 0 {
		fmt.Fprintln(os.Stderr, "abbench: -loss: -fig loss sets its own loss rates")
		os.Exit(2)
	}

	topoSpec, err := topo.ParseSpec(*topoFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abbench: bad -topo %q: %v\n", *topoFlag, err)
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abbench: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	pool := cluster.NewPool()
	defer pool.Drain()

	base := bench.Config{Iters: *iters, Seed: *seed, Pool: pool, Topo: topoSpec,
		Fault: fault.Config{Seed: *faultSeed, Rule: fault.Rule{Drop: *loss}}}
	workers := *parallel

	emit := func(t *bench.Table) {
		if *csv {
			t.WriteCSV(os.Stdout)
			fmt.Println()
		} else {
			t.Write(os.Stdout)
		}
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }
	start := time.Now()
	ran := 0

	if want("6") {
		emit(bench.Fig6(base, workers))
		ran++
	}
	if want("7") {
		emit(bench.Fig7(base, workers))
		ran++
	}
	if want("8") {
		emit(bench.Fig8(base, workers))
		ran++
	}
	if want("9") {
		hetero, homog := bench.Fig9(base, workers)
		emit(hetero)
		emit(homog)
		ran++
	}
	if want("10") {
		emit(bench.Fig10(base, workers))
		ran++
	}
	if *fig == "loss" {
		emit(bench.LossSweep(bench.PaperLossRates(), base, workers))
		ran++
	}
	if *fig == "tenancy" {
		// Multi-tenant figure: concurrent jobs with Poisson arrivals on an
		// oversubscribed fabric, random vs greedy placement. A routed
		// -topo picks the fabric; the default crossbar is replaced by
		// fattree:16 at 8:1 (a crossbar cannot be oversubscribed).
		emit(bench.TenancyFigure(base, workers))
		ran++
	}
	if *fig == "topo" {
		// The sweep sets its own per-job topologies (crossbar baseline in
		// half its cells), so a routed -topo would be contradictory here;
		// it picks the comparison fabric instead. The default is radix 6
		// (3 hosts per leaf): with a power-of-two radix the binomial tree
		// is already leaf-aligned and the topology-aware tree changes
		// nothing, so an odd group width is the interesting case.
		ts := base
		if ts.Topo.Kind == topo.Crossbar {
			ts.Topo = topo.Spec{Kind: topo.FatTree, K: 6}
		}
		emit(bench.TopoSweep([]int{32, 64, 128}, 500*time.Microsecond, 4, ts, workers))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "abbench: unknown figure %q (want 6, 7, 8, 9, 10, loss, topo, tenancy or all)\n", *fig)
		os.Exit(2)
	}

	if *ablations {
		emit(bench.AblationDelay(32, 4, 200*time.Microsecond, base, workers))
		emit(bench.AblationNICReduce(32, 500*time.Microsecond, base, workers))
		emit(bench.AblationSignalCost(32, 4, 500*time.Microsecond, base, workers))
		emit(bench.AblationHeterogeneity(32, 4, base, workers))
		rdv := base
		rdv.Iters = *iters/4 + 1
		emit(bench.AblationRendezvousAB(16, 800*time.Microsecond, rdv, workers))
	}

	if !*csv {
		fmt.Printf("%d figure runs in %v (iters=%d, seed=%d, workers=%d)\n",
			ran, time.Since(start).Round(time.Millisecond), *iters, *seed, sweep.Workers(*parallel, 1<<30))
	}
}
