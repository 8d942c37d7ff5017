package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"abred/internal/bench"
	"abred/internal/cluster"
	"abred/internal/fault"
	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/topo"
)

// cell is one fixed simulation of a batch workload: a cluster shape, a
// reduction mode and an iteration count. Every cell runs count 4 under
// 1 ms of skew, the paper's standard point.
type cell struct {
	name      string
	nodes     int
	mode      bench.Mode
	iters     int
	topo      string  // "" is the crossbar
	lps       int     // 0 is the monolithic kernel
	drop      float64 // per-frame loss; > 0 switches GM to reliable delivery
	topoAware bool
	flow      bool // flow engine instead of the packet engine
}

const (
	cellCount = 4
	cellSkew  = sim.Time(time.Millisecond)
)

// Iteration counts are sized so a round of each workload takes 2–4 s on
// the 2-core reference host, which puts at least four rounds into one
// 15-second run; the node counts are the ones the paper, the gate and
// the scaling record are quoted on.
var batchWorkloads = map[string][]cell{
	"packet_grid": {
		{name: "x32_nab", nodes: 32, mode: bench.NonAppBypass, iters: 30},
		{name: "x32_ab", nodes: 32, mode: bench.AppBypass, iters: 30},
		{name: "x128_nab", nodes: 128, mode: bench.NonAppBypass, iters: 30},
		{name: "x128_ab", nodes: 128, mode: bench.AppBypass, iters: 30},
		{name: "x512_nab", nodes: 512, mode: bench.NonAppBypass, iters: 30},
		{name: "x512_ab", nodes: 512, mode: bench.AppBypass, iters: 30},
		{name: "x1024_nab", nodes: 1024, mode: bench.NonAppBypass, iters: 30},
		{name: "x1024_ab", nodes: 1024, mode: bench.AppBypass, iters: 30},
	},
	"packet_routed": {
		{name: "ft4096_ab_lps0", nodes: 4096, mode: bench.AppBypass, iters: 4, topo: "fattree:16"},
		{name: "ft4096_ab_lps2", nodes: 4096, mode: bench.AppBypass, iters: 4, topo: "fattree:16", lps: 2},
		{name: "ft1024_nab_lossy_lps2", nodes: 1024, mode: bench.NonAppBypass, iters: 12, topo: "fattree:16", lps: 2, drop: 0.005},
		{name: "ft1024_abtree_lossy_lps2", nodes: 1024, mode: bench.AppBypass, iters: 12, topo: "fattree:16", lps: 2, drop: 0.005, topoAware: true},
	},
	"flow_scale": {
		{name: "fl65k_ab_lps0", nodes: 65536, mode: bench.AppBypass, iters: 1, topo: "fattree:16", flow: true},
		{name: "fl65k_nab_lps0", nodes: 65536, mode: bench.NonAppBypass, iters: 1, topo: "fattree:16", flow: true},
		{name: "fl65k_ab_lps2", nodes: 65536, mode: bench.AppBypass, iters: 1, topo: "fattree:16", lps: 2, flow: true},
		{name: "fl262k_ab_lps0", nodes: 262144, mode: bench.AppBypass, iters: 1, topo: "fattree:16", flow: true},
	},
}

// faultSeed is the dedicated fault stream of a lossy cell; it follows
// the cell seed so each round drops different frames.
func faultSeed(seed int64) int64 { return seed ^ 0x5eed }

func mustTopo(s string) topo.Spec {
	ts, err := topo.ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return ts
}

// config is the bench.Config of the cell under a seed, drawing its
// cluster from pool — the path abscale -reuse and abserve both take.
func (c cell) config(seed int64, pool *cluster.Pool) bench.Config {
	cfg := bench.Config{
		Specs:     model.PaperCluster(c.nodes),
		Count:     cellCount,
		Mode:      c.mode,
		MaxSkew:   cellSkew,
		Iters:     c.iters,
		Seed:      seed,
		Topo:      mustTopo(c.topo),
		TopoAware: c.topoAware,
		LPs:       c.lps,
		Pool:      pool,
	}
	if c.flow {
		cfg.Engine = cluster.EngineFlow
	}
	if c.drop > 0 {
		cfg.Fault = fault.Config{Seed: faultSeed(seed), Rule: fault.Rule{Drop: c.drop}}
	}
	return cfg
}

// clusterConfig is the shape the pool keys the cell's cluster on.
func (c cell) clusterConfig(seed int64) cluster.Config {
	cfg := c.config(seed, nil)
	return cluster.Config{Specs: cfg.Specs, Seed: seed, Fault: cfg.Fault, Topo: cfg.Topo, LPs: cfg.LPs, Engine: cfg.Engine}
}

// cellResult is what one run of a cell yields: the simulated statistics
// that must repeat exactly for a seed, and the host wall it took.
type cellResult struct {
	events  uint64
	avgCPU  sim.Time
	elapsed sim.Time
	signals uint64
	wall    time.Duration
	err     error // a panic inside the simulator
}

// same reports whether two runs agree on every simulated statistic.
func (a cellResult) same(b cellResult) bool {
	return a.events == b.events && a.avgCPU == b.avgCPU && a.elapsed == b.elapsed && a.signals == b.signals
}

func (a cellResult) fold(f fingerprint) {
	f.add(a.events)
	f.add(uint64(a.avgCPU))
	f.add(uint64(a.elapsed))
	f.add(a.signals)
}

// runCell times one bench.CPUUtil call. A panic inside the simulator is
// the cell's failure, not the benchmark's.
func runCell(c cell, seed int64, pool *cluster.Pool) (res cellResult, full bench.CPUUtilResult) {
	defer func() {
		if p := recover(); p != nil {
			res.err = fmt.Errorf("cell %s seed %d: panic: %v", c.name, seed, p)
		}
	}()
	cfg := c.config(seed, pool) // the spec table of a 262144-node cell is not the simulator's time
	t0 := time.Now()
	full = bench.CPUUtil(cfg)
	res = cellResult{events: full.Events, avgCPU: full.AvgCPU, elapsed: full.Elapsed, signals: full.Signals, wall: time.Since(t0)}
	return res, full
}

// tally counts operations and the ones that failed, with the reason for
// each failure kept for the report on standard error.
type tally struct {
	attempted, failed int
	problems          []string // faults of the run as a whole, not of one operation
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", err)
	}
}

func (t *tally) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	t.problems = append(t.problems, msg)
	fmt.Fprintln(os.Stderr, "benchmark: PROBLEM:", msg)
}

// round is one pass over a workload's cells.
type round struct {
	cells []cellResult
	fulls []bench.CPUUtilResult
	wall  time.Duration
}

func (r round) events() (ev uint64) {
	for _, c := range r.cells {
		ev += c.events
	}
	return ev
}

// runRound runs every cell serially under one seed. The collection that
// follows keeps one round's garbage from being charged to the next
// round's peak memory; it is outside the round's wall.
func runRound(cells []cell, seed int64, pool *cluster.Pool, t *tally) round {
	r := round{cells: make([]cellResult, len(cells)), fulls: make([]bench.CPUUtilResult, len(cells))}
	t0 := time.Now()
	for i, c := range cells {
		r.cells[i], r.fulls[i] = runCell(c, seed, pool)
		t.op(r.cells[i].err)
	}
	r.wall = time.Since(t0)
	runtime.GC()
	return r
}

// warmUp is the untimed set-up round: every cell runs twice under the
// base seed, first on a freshly built cluster (the pool is empty), then
// on the same cluster drawn back from the pool and Reset. The two must
// agree on every simulated statistic — fresh ≡ pooled — or the second
// run counts as failed.
func warmUp(cells []cell, seed int64, pool *cluster.Pool, t *tally) {
	for _, c := range cells {
		fresh, _ := runCell(c, seed, pool)
		t.op(fresh.err)
		pooled, _ := runCell(c, seed, pool)
		if pooled.err == nil && fresh.err == nil && !fresh.same(pooled) {
			pooled.err = fmt.Errorf("cell %s seed %d: fresh (%d ev, cpu %v, t %v) != pooled (%d ev, cpu %v, t %v)",
				c.name, seed, fresh.events, fresh.avgCPU, fresh.elapsed, pooled.events, pooled.avgCPU, pooled.elapsed)
		}
		t.op(pooled.err)
	}
	runtime.GC()
}

// roundSeed is the seed of timed round r (0-based); the warm-up round
// holds the base seed itself.
func roundSeed(seed int64, r int) int64 { return seed + 1 + int64(r) }

// minRounds keeps a median meaningful when -seconds is small.
const minRounds = 3

// runBatch is the untraced run of a batch workload: warm-up, then timed
// rounds of fixed work until the time budget is spent.
func runBatch(name string, seed int64, budget time.Duration, v values, t *tally) {
	cells := batchWorkloads[name]
	pool := cluster.NewPool()
	warmUp(cells, seed, pool, t)
	v["setup_s"] = time.Since(processStart).Seconds()

	var walls []float64
	var events uint64
	var cellWall time.Duration
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start) < budget; r++ {
		rd := runRound(cells, roundSeed(seed, r), pool, t)
		walls = append(walls, rd.wall.Seconds())
		fmt.Fprintf(os.Stderr, "benchmark: %s round %d: %.3f s\n", name, r, rd.wall.Seconds())
		events += rd.events()
		for _, c := range rd.cells {
			cellWall += c.wall
		}
	}
	v["round_wall_s_p50"] = median(walls)
	if cellWall > 0 {
		v["events_per_s"] = float64(events) / cellWall.Seconds()
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		t.problem("peak rss: %v", err)
	}
	v["peak_rss_mb"] = rss
	pool.Drain()
}
