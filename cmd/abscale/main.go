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
//	        [-bigsizes 2048,4096,8192,16384] [-bigiters N] [-reuse=bool]
//	        [-toposizes 1024,...,16384] [-topoiters N] [-topo SPEC]
//	        [-lps N] [-pdessize N] [-pdeslps 1,2,4] [-pdesiters N]
//	        [-engine packet|flow] [-flowsizes 65536,...,1048576] [-flowiters N]
//	        [-flowpdessizes 65536,...] [-flowpdeslps 1,2,4] [-flowpdesiters N]
//	        [-jobs 4,8,16] [-oversub 1,4] [-place random,greedy]
//	        [-tenancynodes N] [-tenancyiters N] [-tenancycount N]
//	        [-seed N] [-skew D] [-loss P] [-faultseed N] [-parallel N]
//	        [-cpuprofile FILE] [-memprofile FILE] [-csv] [-benchjson FILE]
//
// -sizes names the node counts directly, overriding the -max doubling
// grid; -bigsizes "" skips the large-N grid. -reuse=false rebuilds every
// cluster from scratch instead of drawing from the reuse pool (results
// are byte-identical either way; only wall clock and allocations move).
// -loss P drops each frame with probability P (switching GM to reliable
// delivery); -faultseed seeds the dedicated fault stream.
//
// -toposizes enables the topology sweep at those node counts: the
// paper's ideal crossbar versus the routed fabric named by -topo
// (default fattree:16), where frames pay per-hop cut-through latency
// and queue at shared uplinks, plus bypass with the topology-aware
// reduction tree. -lps N partitions every routed-topology simulation
// into N pod-aligned logical processes run by the conservative parallel
// kernel (results per LP count are deterministic); -pdessize N adds a
// dedicated speedup sweep that reruns one N-node simulation on the
// -topo fabric at each -pdeslps count and reports wall-clock speedup
// over the monolithic kernel; when the LP count exceeds the machine's
// cores the run warns and marks the recorded speedups as invalid
// claims.
//
// -engine flow adds the flow-engine scaling grid: the -flowsizes node
// counts (default 65536–1048576, far past what the packet engine can
// hold) on the -topo fabric, nab versus ab, recorded as flow_sweep in
// -benchjson with per-size wall/heap/events columns. The packet-engine
// sweeps above still run and keep their baselines comparable. The flow
// engine also honours -lps: the max-min substrate is sharded along pod
// boundaries and run under the conservative parallel kernel, with
// cross-spine flows coupled through a stub/grant protocol.
// -flowpdessizes adds the parallel flow sweep: each listed size is
// rerun at every -flowpdeslps count (same nab/ab pair as the flow
// grid, so walls compare against the recorded monolithic flow_sweep
// baselines), best of 3 repetitions with a 95% confidence half-width,
// recorded as flow_pdes_sweep; the same core-count disclaimer as the
// packet PDES sweep applies when LPs exceed the machine's cores.
//
// -jobs enables the multi-tenant sweep: each listed job count is run on
// a -tenancynodes cluster with the -topo fabric at every -oversub
// uplink taper and every -place placement policy, arrivals drawn from a
// seeded Poisson process, each job reducing on its own sub-communicator
// while sharing the fabric with its neighbours. The table reports
// per-job completion-time percentiles with 95% confidence half-widths
// and the AB-vs-binomial reduction-CPU advantage; -benchjson records it
// as tenancy_sweep.
//
// -benchjson records the kernel's execution metrics —
// events/sec, allocs/event and peak heap for each sweep, plus the fixed
// 32-node kernel microbenchmark and the topology-sweep table — to FILE
// (the committed BENCH_kernel.json is produced this way via make bench).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"abred/internal/bench"
	"abred/internal/cluster"
	"abred/internal/fault"
	"abred/internal/model"
	"abred/internal/prof"
	"abred/internal/sim"
	"abred/internal/sweep"
	"abred/internal/topo"
	"abred/internal/workload"
)

// perfEntry is one sweep's execution record in -benchjson output.
type perfEntry struct {
	Sweep          string  `json:"sweep"`
	Sizes          []int   `json:"sizes"`
	Iters          int     `json:"iters"`
	Reuse          bool    `json:"reuse"`
	Jobs           int     `json:"jobs"`
	Workers        int     `json:"workers"`
	WallMS         float64 `json:"wall_ms"`
	Events         uint64  `json:"events"`
	EventsPerSec   float64 `json:"events_per_sec"`
	Allocs         uint64  `json:"allocs"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	HeapPeak       uint64  `json:"heap_peak_bytes"`
}

func entry(name string, sizes []int, iters int, reuse bool, p sweep.Perf) perfEntry {
	return perfEntry{
		Sweep:          name,
		Sizes:          sizes,
		Iters:          iters,
		Reuse:          reuse,
		Jobs:           p.Jobs,
		Workers:        p.Workers,
		WallMS:         float64(p.Wall) / float64(time.Millisecond),
		Events:         p.Events,
		EventsPerSec:   p.EventsPerSec(),
		Allocs:         p.Allocs,
		AllocsPerEvent: p.AllocsPerEvent(),
		HeapPeak:       p.HeapPeak,
	}
}

// parseInts parses a comma-separated integer list whose entries must be
// at least floor: 2 for node counts, 1 for job counts, oversubscription
// ratios and LP counts (where 1 is the single-LP reference point).
// allowEmpty lets "" mean an empty list, which skips the sweep the flag
// feeds; otherwise "" is a bad entry.
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

// lpHostDoc is the machine context both PDES sweeps record next to
// their speedup column. When the LP count exceeds the machine's cores
// that column measures goroutine scheduling, not parallelism, so the doc
// carries a machine-readable disclaimer: oversubscribed,
// speedup_claim_valid and note.
type lpHostDoc struct {
	Cores             int    `json:"cores"`   // GOMAXPROCS — speedup ceiling context
	NumCPU            int    `json:"num_cpu"` // physical cores the OS reports
	Oversubscribed    bool   `json:"oversubscribed"`
	SpeedupClaimValid bool   `json:"speedup_claim_valid"`
	Note              string `json:"note,omitempty"`
}

// lpHost fills the disclaimer for a sweep over lpsList (given by
// flagName) whose speedup is recorded under column, warning on stderr
// when the largest LP count does not fit the machine.
func lpHost(flagName, column string, lpsList []int) lpHostDoc {
	maxLPs := 0
	for _, l := range lpsList {
		if l > maxLPs {
			maxLPs = l
		}
	}
	cores := runtime.NumCPU()
	d := lpHostDoc{Cores: runtime.GOMAXPROCS(0), NumCPU: cores, SpeedupClaimValid: maxLPs <= cores}
	if maxLPs > cores {
		d.Oversubscribed = true
		d.Note = fmt.Sprintf("max LP count %d exceeds the machine's %d core(s); "+
			"wall-clock %s measures goroutine scheduling, not parallel execution",
			maxLPs, cores, column)
		fmt.Fprintf(os.Stderr, "abscale: warning: %s goes up to %d LPs on %d core(s); "+
			"speedup numbers are scheduling artifacts and are annotated as invalid claims\n",
			flagName, maxLPs, cores)
	}
	return d
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
	pdesSize := flag.Int("pdessize", 0, "PDES speedup sweep node count (0 skips it)")
	pdesLPs := flag.String("pdeslps", "1,2,4", "comma-separated LP counts for the PDES speedup sweep")
	pdesIters := flag.Int("pdesiters", 6, "iterations per PDES speedup point")
	engineFlag := flag.String("engine", "packet", "simulation engine: packet (full fidelity) or flow (large-scale)")
	flowSizes := flag.String("flowsizes", "65536,262144,1048576", "flow-engine grid node counts (\"\" skips it; -engine flow only)")
	flowIters := flag.Int("flowiters", 3, "iterations per flow-engine data point")
	flowPdesSizes := flag.String("flowpdessizes", "", "parallel flow sweep node counts (\"\" skips it; -engine flow only)")
	flowPdesLPs := flag.String("flowpdeslps", "1,2,4", "comma-separated LP counts for the parallel flow sweep")
	flowPdesIters := flag.Int("flowpdesiters", 3, "iterations per parallel flow data point")
	jobsFlag := flag.String("jobs", "", "tenancy-sweep concurrent-job counts (\"\" skips the multi-tenant sweep)")
	oversubFlag := flag.String("oversub", "1,4", "tenancy-sweep oversubscription ratios applied to the -topo fabric")
	placeFlag := flag.String("place", "random,greedy", "tenancy-sweep placement policies (comma list of random|greedy|genetic)")
	tenancyNodes := flag.Int("tenancynodes", 64, "tenancy-sweep cluster size")
	tenancyIters := flag.Int("tenancyiters", 8, "iterations per tenant job in the tenancy sweep")
	tenancyCount := flag.Int("tenancycount", 256, "message elements per tenant reduction (large enough to contend on uplinks)")
	tenancyArrival := flag.Duration("tenancyarrival", 50*time.Microsecond, "mean tenant inter-arrival gap (Poisson)")
	reuse := flag.Bool("reuse", true, "reuse built clusters across grid cells (pool + Reset)")
	seed := flag.Int64("seed", 20030701, "simulation seed")
	skew := flag.Duration("skew", time.Millisecond, "maximum skew for the skewed sweep")
	loss := flag.Float64("loss", 0, "frame-drop probability on every link (enables GM reliable delivery)")
	faultSeed := flag.Int64("faultseed", 0, "seed of the dedicated fault-decision stream")
	parallel := flag.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = serial)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	csv := flag.Bool("csv", false, "emit CSV")
	benchJSON := flag.String("benchjson", "", "write kernel performance metrics here (empty to disable)")
	flag.Parse()

	// Validate the engine/kernel flag combination up front so a bad mix
	// (e.g. -lps on an unroutable topology) is a flag-level error, not a
	// panic deep inside the first sweep. Both engines honour -lps now:
	// the packet fabric and the flow substrate each shard along pods.
	engine, err := cluster.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abscale: %v\n", err)
		os.Exit(2)
	}
	if verr := (cluster.Config{Specs: model.Uniform(2), Engine: engine, LPs: *lps}).Validate(); verr != nil {
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

	var pool *cluster.Pool
	if *reuse {
		pool = cluster.NewPool()
		defer pool.Drain()
	}

	var entries []perfEntry
	runGrid := func(grid string, gridSizes []int, gridIters int) {
		for _, s := range []struct {
			skew time.Duration
			note string
		}{
			{*skew, "skewed"},
			{0, "no artificial skew"},
		} {
			t := bench.ScaleProjection(gridSizes, s.skew, *count,
				bench.Opts{Iters: gridIters, Seed: *seed, Workers: *parallel, Pool: pool,
					Fault: fault.Config{Seed: *faultSeed, Rule: fault.Rule{Drop: *loss}},
					LPs:   *lps})
			t.Title = fmt.Sprintf("%s (%s%s, max skew %v, %d elements, %d iters)",
				t.Title, grid, s.note, s.skew, *count, gridIters)
			if *csv {
				t.WriteCSV(os.Stdout)
				fmt.Println()
			} else {
				t.Write(os.Stdout)
			}
			entries = append(entries, entry(grid+s.note, gridSizes, gridIters, *reuse, t.Perf))
		}
	}
	runGrid("", sizes, *iters)
	if big := parseInts("-bigsizes", *bigSizes, 2, true); len(big) > 0 {
		runGrid("large-n ", big, *bigIters)
	}

	var topoDoc *topoSweepDoc
	if ts := parseInts("-toposizes", *topoSizes, 2, true); len(ts) > 0 {
		ft := routed("-topo %q is not a routed fabric")
		t := bench.TopoSweep(ts, ft, *skew, *count,
			bench.Opts{Iters: *topoIters, Seed: *seed, Workers: *parallel, Pool: pool,
				Fault: fault.Config{Seed: *faultSeed, Rule: fault.Rule{Drop: *loss}},
				LPs:   *lps})
		t.Title = fmt.Sprintf("%s (max skew %v, %d elements, %d iters)", t.Title, *skew, *count, *topoIters)
		if *csv {
			t.WriteCSV(os.Stdout)
			fmt.Println()
		} else {
			t.Write(os.Stdout)
		}
		entries = append(entries, entry("topo", ts, *topoIters, *reuse, t.Perf))
		topoDoc = &topoSweepDoc{Fabric: ft.String(), MaxSkew: skew.String(), Elements: *count,
			Iters: *topoIters, Cols: t.Cols, Nodes: ts, Rows: t.Rows}
	}

	var pdesDoc *pdesSweepDoc
	if *pdesSize > 1 {
		ft := routed("-pdessize needs a routed -topo, got %q")
		lpsList := parseInts("-pdeslps", *pdesLPs, 1, false)
		points := bench.PDESSweep(*pdesSize, ft, *skew, *count, *pdesIters, *seed, lpsList)
		pdesDoc = &pdesSweepDoc{Fabric: ft.String(), Nodes: *pdesSize, Iters: *pdesIters,
			MaxSkew: skew.String(), Elements: *count, Points: points,
			lpHostDoc: lpHost("-pdeslps", "speedup_vs_first", lpsList)}
		base := points[0].WallMS
		fmt.Printf("PDES speedup sweep — %d nodes on %s, %d iters, %d cores\n",
			*pdesSize, ft, *pdesIters, pdesDoc.Cores)
		fmt.Printf("%8s %12s %14s %12s %10s\n", "lps", "wall_ms", "events", "avg_cpu_us", "speedup")
		for _, p := range points {
			sp := base / p.WallMS
			pdesDoc.Speedup = append(pdesDoc.Speedup, sp)
			fmt.Printf("%8d %12.1f %14d %12.3f %9.2fx\n", p.LPs, p.WallMS, p.Events, p.AvgCPUus, sp)
		}
		fmt.Println()
	}

	var flowDoc *flowSweepDoc
	if engine == cluster.EngineFlow {
		if fs := parseInts("-flowsizes", *flowSizes, 2, true); len(fs) > 0 {
			if topoErr != nil {
				fmt.Fprintf(os.Stderr, "abscale: bad -topo %q: %v\n", *topoFlag, topoErr)
				os.Exit(2)
			}
			points := bench.FlowSweep(fs, ft, *skew, *count, *flowIters, *seed)
			flowDoc = &flowSweepDoc{Fabric: ft.String(), MaxSkew: skew.String(),
				Elements: *count, Iters: *flowIters, Points: points}
			fmt.Printf("Flow-engine scaling sweep — %s, max skew %v, %d elements, %d iters\n",
				ft, *skew, *count, *flowIters)
			fmt.Printf("%10s %10s %10s %8s %12s %14s %14s %12s\n",
				"nodes", "nab_us", "ab_us", "factor", "wall_ms", "events", "heap_bytes", "fct_p99_us")
			for _, p := range points {
				fmt.Printf("%10d %10.3f %10.3f %8.2f %12.1f %14d %14d %12.1f\n",
					p.Nodes, p.NabUS, p.AbUS, p.Factor, p.WallMS, p.Events, p.HeapPeak, p.FCTp99US)
			}
			fmt.Println()
		}
	}

	var flowPdesDoc *flowPdesSweepDoc
	if fps := parseInts("-flowpdessizes", *flowPdesSizes, 2, true); len(fps) > 0 {
		if engine != cluster.EngineFlow {
			fmt.Fprintln(os.Stderr, "abscale: -flowpdessizes needs -engine flow")
			os.Exit(2)
		}
		ft := routed("-flowpdessizes needs a routed -topo, got %q")
		lpsList := parseInts("-flowpdeslps", *flowPdesLPs, 1, false)
		points := bench.FlowPDESSweep(fps, ft, *skew, *count, *flowPdesIters, *seed, lpsList)
		flowPdesDoc = &flowPdesSweepDoc{Fabric: ft.String(), MaxSkew: skew.String(),
			Elements: *count, Iters: *flowPdesIters, LPCounts: lpsList, Points: points,
			lpHostDoc: lpHost("-flowpdeslps", "speedup_vs_first_lps", lpsList)}
		// Per-size speedup against that size's first LP-count cell.
		base := map[int]float64{}
		fmt.Printf("Parallel flow sweep — %s, max skew %v, %d elements, %d iters, min of %d reps\n",
			ft, *skew, *count, *flowPdesIters, bench.FlowPDESReps)
		fmt.Printf("%10s %6s %12s %10s %10s %10s %14s %12s %9s\n",
			"nodes", "lps", "wall_ms", "ci95_ms", "nab_us", "ab_us", "events", "fct_p99_us", "speedup")
		for _, p := range points {
			if _, ok := base[p.Nodes]; !ok {
				base[p.Nodes] = p.WallMS
			}
			sp := base[p.Nodes] / p.WallMS
			flowPdesDoc.Speedup = append(flowPdesDoc.Speedup, sp)
			fmt.Printf("%10d %6d %12.1f %10.1f %10.3f %10.3f %14d %12.1f %8.2fx\n",
				p.Nodes, p.LPs, p.WallMS, p.CI95MS, p.NabUS, p.AbUS, p.Events, p.FCTp99US, sp)
		}
		fmt.Println()
	}

	var tenancyDoc *tenancySweepDoc
	if jobCounts := parseInts("-jobs", *jobsFlag, 1, true); len(jobCounts) > 0 {
		ft := routed("the tenancy sweep needs a routed -topo, got %q")
		oversubs := parseInts("-oversub", *oversubFlag, 1, true)
		if len(oversubs) == 0 {
			fmt.Fprintln(os.Stderr, "abscale: -oversub must name at least one ratio")
			os.Exit(2)
		}
		var places []workload.Placement
		var placeNames []string
		for _, f := range strings.Split(*placeFlag, ",") {
			p, err := workload.ParsePlacement(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintf(os.Stderr, "abscale: -place: %v\n", err)
				os.Exit(2)
			}
			places = append(places, p)
			placeNames = append(placeNames, p.Name())
		}
		points := bench.TenancySweep(model.PaperCluster(*tenancyNodes), ft, jobCounts, oversubs,
			places, sim.Time(*tenancyArrival), *tenancyIters, *tenancyCount, *seed, *parallel)
		tenancyDoc = &tenancySweepDoc{Fabric: ft.String(), Nodes: *tenancyNodes,
			Iters: *tenancyIters, Elements: *tenancyCount, Arrival: tenancyArrival.String(),
			JobCounts: jobCounts, Oversubs: oversubs, Places: placeNames, Points: points}
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

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, sizes, *iters, entries, topoDoc, pdesDoc, flowDoc, flowPdesDoc, tenancyDoc); err != nil {
			fmt.Fprintf(os.Stderr, "abscale: %v\n", err)
			os.Exit(1)
		}
	}
}

// topoSweepDoc is the topology sweep's record in -benchjson output: the
// full crossbar-vs-fat-tree table, so the committed BENCH_kernel.json
// carries the hop-latency and uplink-contention numbers.
type topoSweepDoc struct {
	Fabric   string      `json:"fabric"`
	MaxSkew  string      `json:"max_skew"`
	Elements int         `json:"elements"`
	Iters    int         `json:"iters"`
	Cols     []string    `json:"cols"`
	Nodes    []int       `json:"nodes"`
	Rows     [][]float64 `json:"rows"`
}

// pdesSweepDoc is the parallel-kernel speedup sweep's record in
// -benchjson output: the same large routed simulation run at each LP
// count, with wall-clock speedup relative to the first (monolithic)
// point. Virtual-time columns (events, avg_cpu_us, signals) pin each
// LP count's deterministic result.
type pdesSweepDoc struct {
	Fabric   string `json:"fabric"`
	Nodes    int    `json:"nodes"`
	MaxSkew  string `json:"max_skew"`
	Elements int    `json:"elements"`
	Iters    int    `json:"iters"`
	lpHostDoc
	Points  []bench.PDESPoint `json:"points"`
	Speedup []float64         `json:"speedup_vs_first"`
}

// flowSweepDoc is the flow-engine scaling grid's record in -benchjson
// output (-engine flow): per-size nab/ab CPU utilization plus the wall,
// events and peak-heap columns that certify each point's simulation
// cost, and flow-completion-time percentiles from the ab runs.
type flowSweepDoc struct {
	Fabric   string            `json:"fabric"`
	MaxSkew  string            `json:"max_skew"`
	Elements int               `json:"elements"`
	Iters    int               `json:"iters"`
	Points   []bench.FlowPoint `json:"points"`
}

// flowPdesSweepDoc is the parallel flow sweep's record in -benchjson
// output (-engine flow -flowpdessizes): the sizes × LP-counts grid,
// each cell the flow grid's nab/ab pair under that LP count, best of
// bench.FlowPDESReps repetitions with a 95% confidence half-width on
// the wall. speedup_vs_first_lps compares each cell against its size's
// first LP-count cell; the monolithic flow_sweep baselines recorded
// before the engine was sharded stay in flow_sweep for comparison.
type flowPdesSweepDoc struct {
	Fabric   string `json:"fabric"`
	MaxSkew  string `json:"max_skew"`
	Elements int    `json:"elements"`
	Iters    int    `json:"iters"`
	lpHostDoc
	LPCounts []int                 `json:"lp_counts"`
	Points   []bench.FlowPDESPoint `json:"points"`
	Speedup  []float64             `json:"speedup_vs_first_lps"`
}

// tenancySweepDoc is the multi-tenant sweep's record in -benchjson
// output (-jobs): per-(job count, oversubscription, placement) JCT
// percentiles with 95% confidence half-widths and the AB-vs-binomial
// reduction-CPU advantage under shared-fabric contention.
type tenancySweepDoc struct {
	Fabric    string               `json:"fabric"`
	Nodes     int                  `json:"nodes"`
	Iters     int                  `json:"iters"`
	Elements  int                  `json:"elements"`
	Arrival   string               `json:"mean_arrival"`
	JobCounts []int                `json:"job_counts"`
	Oversubs  []int                `json:"oversub_ratios"`
	Places    []string             `json:"placements"`
	Points    []bench.TenancyPoint `json:"points"`
}

// writeBenchJSON records the scaling sweeps' execution metrics plus the
// fixed kernel microbenchmark.
func writeBenchJSON(path string, sizes []int, iters int, entries []perfEntry, topoDoc *topoSweepDoc, pdesDoc *pdesSweepDoc, flowDoc *flowSweepDoc, flowPdesDoc *flowPdesSweepDoc, tenancyDoc *tenancySweepDoc) error {
	doc := struct {
		Workload string                       `json:"workload"`
		Sizes    []int                        `json:"sizes"`
		Iters    int                          `json:"iters"`
		Micro    bench.KernelMicrobenchResult `json:"kernel_microbench_ab"`
		MicroNab bench.KernelMicrobenchResult `json:"kernel_microbench_nab"`

		ScalingPerf   []perfEntry       `json:"scaling_sweeps"`
		TopoSweep     *topoSweepDoc     `json:"topo_sweep,omitempty"`
		PDESSweep     *pdesSweepDoc     `json:"pdes_sweep,omitempty"`
		FlowSweep     *flowSweepDoc     `json:"flow_sweep,omitempty"`
		FlowPDESSweep *flowPdesSweepDoc `json:"flow_pdes_sweep,omitempty"`
		TenancySweep  *tenancySweepDoc  `json:"tenancy_sweep,omitempty"`
	}{Workload: "32-node Fig. 6 CPU-utilization workload (count=4, skew=1ms, iters=50, seed=20030701)",
		Sizes: sizes, Iters: iters,
		Micro:       bench.KernelMicrobench(bench.AppBypass, 50, 20030701),
		MicroNab:    bench.KernelMicrobench(bench.NonAppBypass, 50, 20030701),
		ScalingPerf: entries, TopoSweep: topoDoc, PDESSweep: pdesDoc, FlowSweep: flowDoc,
		FlowPDESSweep: flowPdesDoc, TenancySweep: tenancyDoc}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
