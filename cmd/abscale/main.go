// Command abscale projects the paper's comparison past its 32-node
// testbed — the future work named in §VII ("we intend to evaluate the
// performance of application-bypass operations on large-scale
// clusters"). It replicates the paper's interlaced heterogeneous node
// mix out to the requested sizes and reports average per-node CPU
// utilization for both implementations, skewed and unskewed. A second,
// large-N grid (default 2048–16384 nodes at reduced iterations) probes
// the scaling envelope the cluster-reuse and slab-allocation fast path
// makes practical on one machine.
//
// Usage:
//
//	abscale [-max N | -sizes 32,128,512,1024] [-count N] [-iters N]
//	        [-bigsizes 2048,4096,8192,16384] [-bigiters N]
//	        [-toposizes 1024,...,16384] [-topoiters N] [-topo SPEC] [-lps N]
//	        [-engine packet|flow] [-flowsizes 65536,...,1048576] [-flowiters N]
//	        [-jobs 4,8,16] [-oversub 1,4] [-place random,greedy]
//	        [-tenancynodes N] [-tenancyiters N] [-tenancycount N]
//	        [-seed N] [-skew D] [-loss P] [-faultseed N] [-parallel N]
//	        [-cpuprofile FILE] [-memprofile FILE] [-csv]
//
// -sizes names the node counts directly, overriding the -max doubling
// grid; -bigsizes "" skips the large-N grid. Every grid draws its
// clusters from a reuse pool (results are byte-identical to fresh
// builds; the reuse determinism tests enforce it). -loss P drops each
// frame with probability P (switching GM to reliable delivery);
// -faultseed seeds the dedicated fault stream.
//
// -toposizes enables the topology sweep at those node counts: the
// paper's ideal crossbar versus the routed fabric named by -topo
// (default fattree:16), where frames pay per-hop cut-through latency
// and queue at shared uplinks, plus bypass with the topology-aware
// reduction tree. -lps N partitions every routed-topology simulation
// into N pod-aligned logical processes run by the conservative parallel
// kernel; results per (seed, faultseed, LP count) are deterministic,
// and on a loss-free packet fabric the tables are the same at every LP
// count.
//
// -engine flow adds the flow-engine scaling grid: the -flowsizes node
// counts (default 65536–1048576, far past what the packet engine can
// hold) on the -topo fabric, nab versus ab, with per-size wall, events
// and peak live-heap columns. The packet-engine sweeps above still run.
// The flow engine models eager reductions only, so -engine flow refuses
// a -count past the eager threshold (2048 doubles) up front. The
// flow engine also honours -lps: the max-min substrate is sharded along
// pod boundaries and run under the conservative parallel kernel, with
// cross-spine flows coupled through a stub/grant protocol.
//
// -jobs enables the multi-tenant sweep: each listed job count is run on
// a -tenancynodes cluster with the -topo fabric at every -oversub
// uplink taper and every -place placement policy, arrivals drawn from a
// seeded Poisson process, each job reducing on its own sub-communicator
// while sharing the fabric with its neighbours. The table reports
// per-job completion-time percentiles with 95% confidence half-widths
// and the AB-vs-binomial reduction-CPU advantage.
//
// Everything printed is virtual time and deterministic per seed, except
// the flow grid's wall_ms and live_bytes columns. Wall-clock numbers
// with repetitions, a spread and a host description come from
// `go run ./benchmark`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"abred/internal/bench"
	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/fault"
	"abred/internal/model"
	"abred/internal/prof"
	"abred/internal/sim"
	"abred/internal/topo"
	"abred/internal/workload"
)

// parseInts parses a comma-separated integer list whose entries must be
// at least floor: 2 for node counts, 1 for job counts and
// oversubscription ratios. allowEmpty lets "" mean an empty list, which
// skips the sweep the flag feeds; otherwise "" is a bad entry.
func parseInts(flagName, v string, floor int, allowEmpty bool) []int {
	if v == "" && allowEmpty {
		return nil
	}
	var out []int
	for _, f := range strings.Split(v, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < floor {
			fmt.Fprintf(os.Stderr, "abscale: bad %s entry %q\n", flagName, f)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func main() {
	max := flag.Int("max", 256, "largest cluster size (power of two)")
	sizesFlag := flag.String("sizes", "", "comma-separated node counts (overrides -max)")
	count := flag.Int("count", 4, "message elements (double words)")
	iters := flag.Int("iters", 100, "iterations per data point")
	bigSizes := flag.String("bigsizes", "2048,4096,8192,16384", "large-N grid node counts (\"\" skips it)")
	bigIters := flag.Int("bigiters", 12, "iterations per large-N data point")
	topoSizes := flag.String("toposizes", "", "topology-sweep node counts (\"\" skips it)")
	topoIters := flag.Int("topoiters", 6, "iterations per topology-sweep data point")
	topoFlag := flag.String("topo", "fattree:16", "routed fabric the topology sweep compares against the crossbar")
	lps := flag.Int("lps", 0, "logical processes per simulation (parallel kernel; needs a routed -topo, 0/1 = monolithic)")
	engineFlag := flag.String("engine", "packet", "simulation engine: packet (full fidelity) or flow (large-scale)")
	flowSizes := flag.String("flowsizes", "65536,262144,1048576", "flow-engine grid node counts (\"\" skips it; -engine flow only)")
	flowIters := flag.Int("flowiters", 3, "iterations per flow-engine data point")
	jobsFlag := flag.String("jobs", "", "tenancy-sweep concurrent-job counts (\"\" skips the multi-tenant sweep)")
	oversubFlag := flag.String("oversub", "1,4", "tenancy-sweep oversubscription ratios applied to the -topo fabric")
	placeFlag := flag.String("place", "random,greedy", "tenancy-sweep placement policies (comma list of random|greedy|genetic)")
	tenancyNodes := flag.Int("tenancynodes", 64, "tenancy-sweep cluster size")
	tenancyIters := flag.Int("tenancyiters", 8, "iterations per tenant job in the tenancy sweep")
	tenancyCount := flag.Int("tenancycount", 256, "message elements per tenant reduction (large enough to contend on uplinks)")
	tenancyArrival := flag.Duration("tenancyarrival", 50*time.Microsecond, "mean tenant inter-arrival gap (Poisson)")
	seed := flag.Int64("seed", 20030701, "simulation seed")
	skew := flag.Duration("skew", time.Millisecond, "maximum skew for the skewed sweep")
	loss := flag.Float64("loss", 0, "frame-drop probability on every link (enables GM reliable delivery)")
	faultSeed := flag.Int64("faultseed", 0, "seed of the dedicated fault-decision stream")
	parallel := flag.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = serial)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	csv := flag.Bool("csv", false, "emit CSV")
	flag.Parse()

	for _, f := range []struct {
		name     string
		v, floor int
	}{
		{"iters", *iters, 1}, {"count", *count, 1}, {"bigiters", *bigIters, 1}, {"topoiters", *topoIters, 1},
		{"flowiters", *flowIters, 1}, {"tenancynodes", *tenancyNodes, 2}, {"tenancyiters", *tenancyIters, 1},
		{"tenancycount", *tenancyCount, 1},
	} {
		if f.v < f.floor {
			fmt.Fprintf(os.Stderr, "abscale: -%s %d: must be at least %d\n", f.name, f.v, f.floor)
			os.Exit(2)
		}
	}

	// Validate the engine/kernel/loss flag combination up front so a bad
	// mix (e.g. -lps on an unroutable topology, or -loss outside [0, 1))
	// is a flag-level error, not a panic deep inside the first sweep. Both engines honour -lps now:
	// the packet fabric and the flow substrate each shard along pods.
	engine, err := cluster.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abscale: %v\n", err)
		os.Exit(2)
	}
	if err := (&coll.Program{Count: *count}).FlowRefusal(model.DefaultCosts().EagerThreshold); engine == cluster.EngineFlow && err != nil {
		fmt.Fprintf(os.Stderr, "abscale: -count %d: %v\n", *count, err)
		os.Exit(2)
	}
	faults := fault.Config{Seed: *faultSeed, Rule: fault.Rule{Drop: *loss}}
	if verr := (cluster.Config{Specs: model.Uniform(2), Engine: engine, LPs: *lps, Fault: faults}).Validate(); verr != nil {
		fmt.Fprintf(os.Stderr, "abscale: %v\n", verr)
		os.Exit(2)
	}

	// -topo is only an error for the sweeps that use it: routed exits
	// with what's usage message unless it names a routed fabric.
	ft, topoErr := topo.ParseSpec(*topoFlag)
	routed := func(what string) topo.Spec {
		if topoErr != nil || ft.Kind == topo.Crossbar {
			fmt.Fprintf(os.Stderr, "abscale: "+what+"\n", *topoFlag)
			os.Exit(2)
		}
		return ft
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abscale: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	sizes := parseInts("-sizes", *sizesFlag, 2, true)
	if sizes == nil {
		for n := 8; n <= *max; n *= 2 {
			sizes = append(sizes, n)
		}
	}
	if len(sizes) == 0 {
		fmt.Fprintln(os.Stderr, "abscale: -max must be at least 8")
		os.Exit(2)
	}

	pool := cluster.NewPool()
	defer pool.Drain()
	base := bench.Config{Seed: *seed, Pool: pool, LPs: *lps, Fault: faults}
	workers := *parallel

	runGrid := func(grid string, gridSizes []int, gridIters int) {
		for _, s := range []struct {
			skew time.Duration
			note string
		}{
			{*skew, "skewed"},
			{0, "no artificial skew"},
		} {
			cfg := base
			cfg.Iters = gridIters
			t := bench.ScaleProjection(gridSizes, s.skew, *count, cfg, workers)
			t.Title = fmt.Sprintf("%s (%s%s, max skew %v, %d elements, %d iters)",
				t.Title, grid, s.note, s.skew, *count, gridIters)
			if *csv {
				t.WriteCSV(os.Stdout)
				fmt.Println()
			} else {
				t.Write(os.Stdout)
			}
		}
	}
	runGrid("", sizes, *iters)
	if big := parseInts("-bigsizes", *bigSizes, 2, true); len(big) > 0 {
		runGrid("large-n ", big, *bigIters)
	}

	if ts := parseInts("-toposizes", *topoSizes, 2, true); len(ts) > 0 {
		sweep := base
		sweep.Iters, sweep.Topo = *topoIters, routed("-topo %q is not a routed fabric")
		t := bench.TopoSweep(ts, *skew, *count, sweep, workers)
		t.Title = fmt.Sprintf("%s (max skew %v, %d elements, %d iters)", t.Title, *skew, *count, *topoIters)
		if *csv {
			t.WriteCSV(os.Stdout)
			fmt.Println()
		} else {
			t.Write(os.Stdout)
		}
	}

	if engine == cluster.EngineFlow {
		if fs := parseInts("-flowsizes", *flowSizes, 2, true); len(fs) > 0 {
			if topoErr != nil {
				fmt.Fprintf(os.Stderr, "abscale: bad -topo %q: %v\n", *topoFlag, topoErr)
				os.Exit(2)
			}
			sweep := base
			sweep.Iters, sweep.Topo = *flowIters, ft
			points := bench.FlowSweep(fs, *skew, *count, sweep)
			fmt.Printf("Flow-engine scaling sweep — %s, max skew %v, %d elements, %d iters\n",
				ft, *skew, *count, *flowIters)
			fmt.Printf("%10s %10s %10s %8s %12s %14s %14s %12s\n",
				"nodes", "nab_us", "ab_us", "factor", "wall_ms", "events", "live_bytes", "fct_p99_us")
			for _, p := range points {
				fmt.Printf("%10d %10.3f %10.3f %8.2f %12.1f %14d %14d %12.1f\n",
					p.Nodes, p.NabUS, p.AbUS, p.Factor, p.WallMS, p.Events, p.LivePeak, p.FCTp99US)
			}
			fmt.Println()
		}
	}

	if jobCounts := parseInts("-jobs", *jobsFlag, 1, true); len(jobCounts) > 0 {
		ft := routed("the tenancy sweep needs a routed -topo, got %q")
		oversubs := parseInts("-oversub", *oversubFlag, 1, true)
		if len(oversubs) == 0 {
			fmt.Fprintln(os.Stderr, "abscale: -oversub must name at least one ratio")
			os.Exit(2)
		}
		var places []workload.Placement
		for _, f := range strings.Split(*placeFlag, ",") {
			p, err := workload.ParsePlacement(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintf(os.Stderr, "abscale: -place: %v\n", err)
				os.Exit(2)
			}
			places = append(places, p)
		}
		sweep := base
		sweep.Specs, sweep.Topo, sweep.Iters, sweep.Count = model.PaperCluster(*tenancyNodes), ft, *tenancyIters, *tenancyCount
		points := bench.TenancySweep(jobCounts, oversubs, places, sim.Time(*tenancyArrival), sweep, workers)
		fmt.Printf("Multi-tenant sweep — %d nodes on %s, %d iters/job, %d elements\n",
			*tenancyNodes, ft, *tenancyIters, *tenancyCount)
		fmt.Printf("%6s %8s %8s %12s %12s %12s %12s %12s %8s\n",
			"jobs", "oversub", "place", "jct_p50_us", "jct_p95_us", "jct_ci95_us",
			"nab_cpu_us", "ab_cpu_us", "factor")
		for _, p := range points {
			fmt.Printf("%6d %8d %8s %12.1f %12.1f %12.1f %12.3f %12.3f %8.2f\n",
				p.Jobs, p.Oversub, p.Place, p.JCTp50US, p.JCTp95US, p.JCTCI95US,
				p.NabCPUUS, p.AbCPUUS, p.Factor)
		}
		fmt.Println()
	}
}
