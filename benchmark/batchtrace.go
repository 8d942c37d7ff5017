package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"abred/internal/bench"
	"abred/internal/cluster"
)

// tracedRounds is how many untraced rounds the traced run of a batch
// workload takes its cell medians, allocation and GC numbers over.
const tracedRounds = 3

// poolTimes spans the three pool operations on one cluster shape, on a
// pool of its own: a cold Get (cluster.New), the Put, and a warm Get
// (Cluster.Reset).
func poolTimes(cfg cluster.Config, v values) {
	pool := cluster.NewPool()
	t0 := time.Now()
	cl := pool.Get(cfg)
	v["cluster.new_ms"] = millis(time.Since(t0))
	t0 = time.Now()
	pool.Put(cl)
	v["cluster.pool_put_us"] = micros(time.Since(t0))
	t0 = time.Now()
	cl = pool.Get(cfg)
	v["cluster.reset_ms"] = millis(time.Since(t0))
	pool.Put(cl)
	pool.Drain()
	runtime.GC()
}

// largest returns the workload's cell with the most nodes.
func largest(cells []cell) cell {
	big := cells[0]
	for _, c := range cells[1:] {
		if c.nodes > big.nodes {
			big = c
		}
	}
	return big
}

func cellNamed(cells []cell, rd round, name string) (cellResult, bench.CPUUtilResult, bool) {
	for i, c := range cells {
		if c.name == name {
			return rd.cells[i], rd.fulls[i], true
		}
	}
	return cellResult{}, bench.CPUUtilResult{}, false
}

// relErrPct is |a-b|/b in percent.
func relErrPct(a, b float64) float64 { return ratio(math.Abs(a-b), b) * 100 }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// abFactors are the cell pairs whose NAB-CPU over AB-CPU ratio — the
// paper's claim — the traced run reports.
var abFactors = []struct{ metric, nab, ab string }{
	{"core.ab_factor_1024", "x1024_nab", "x1024_ab"},
	{"core.ab_factor_ft1024_lossy", "ft1024_nab_lossy_lps2", "ft1024_abtree_lossy_lps2"},
	{"flow.ab_factor_65536", "fl65k_nab_lps0", "fl65k_ab_lps0"},
}

// lp2Pairs are the cell pairs that differ only in running on two LPs.
var lp2Pairs = []struct{ metric, lps0, lps2 string }{
	{"sim.lp2_speedup.packet", "ft4096_ab_lps0", "ft4096_ab_lps2"},
	{"sim.lp2_speedup.flow", "fl65k_ab_lps0", "fl65k_ab_lps2"},
}

// crossValidate runs the 4096-node fat-tree AB point on both engines
// and reports the flow engine's error against the packet engine, which
// is the reference model.
func crossValidate(seed int64, pool *cluster.Pool, v values, t *tally) {
	pkt := cell{name: "xval_packet4096", nodes: 4096, mode: bench.AppBypass, iters: 3, topo: "fattree:16"}
	flw := pkt
	flw.name, flw.flow = "xval_flow4096", true
	p, _ := runCell(pkt, seed, pool)
	t.op(p.err)
	f, _ := runCell(flw, seed, pool)
	t.op(f.err)
	if p.err == nil && f.err == nil {
		v["flow.xval_cpu_err_pct"] = relErrPct(float64(f.avgCPU), float64(p.avgCPU))
		v["flow.xval_elapsed_err_pct"] = relErrPct(float64(f.elapsed), float64(p.elapsed))
	}
}

// runBatchTraced is the traced run of a batch workload. It produces the
// per-layer numbers: pool spans, exact counters, per-cell medians over
// tracedRounds untraced rounds, and one traced round whose wall against
// the untraced round of the same seed is the tracing overhead.
func runBatchTraced(name string, seed int64, v values, t *tally, tr *tracer) {
	cells := batchWorkloads[name]
	poolTimes(largest(cells).clusterConfig(seed), v)

	// One pass fills the pool; the fresh ≡ pooled check belongs to the
	// untraced run.
	pool := cluster.NewPool()
	runRound(cells, seed, pool, t)
	if name == "flow_scale" {
		crossValidate(seed, pool, v, t)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rounds := make([]round, tracedRounds)
	var events uint64
	fp := newFingerprint()
	for r := range rounds {
		rounds[r] = runRound(cells, roundSeed(seed, r), pool, t)
		events += rounds[r].events()
		for _, c := range rounds[r].cells {
			c.fold(fp)
		}
	}
	runtime.ReadMemStats(&m1)
	v["sim.events"] = float64(rounds[0].events())
	v["bench.simfp"] = fp.low32()
	v["bench.allocs_per_kevent"] = ratio(float64(m1.Mallocs-m0.Mallocs)*1000, float64(events))
	v["bench.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	cellMedian := func(cellName string) float64 {
		var walls []float64
		for _, rd := range rounds {
			if c, _, ok := cellNamed(cells, rd, cellName); ok {
				walls = append(walls, millis(c.wall))
			}
		}
		return median(walls)
	}
	for _, c := range cells {
		v["bench.cell_ms_p50."+c.name] = cellMedian(c.name)
	}
	for _, p := range lp2Pairs {
		if a, b := cellMedian(p.lps0), cellMedian(p.lps2); a > 0 && b > 0 {
			v[p.metric] = a / b
		}
	}
	for _, p := range abFactors {
		nab, _, ok1 := cellNamed(cells, rounds[0], p.nab)
		ab, _, ok2 := cellNamed(cells, rounds[0], p.ab)
		if ok1 && ok2 {
			v[p.metric] = ratio(float64(nab.avgCPU), float64(ab.avgCPU))
		}
	}
	if name == "flow_scale" {
		var delayed uint64
		var delay time.Duration
		for _, f := range rounds[0].fulls {
			delayed += f.LinkWaits
			delay += f.LinkWait
		}
		v["flow.delayed"] = float64(delayed)
		v["flow.delay_us"] = micros(delay)
		_, big, _ := cellNamed(cells, rounds[0], largest(cells).name)
		v["flow.fct_p99_us"] = micros(big.FCT.P99)
	}

	// The traced round repeats round 0. Packet cells run through the
	// benchmark's own rank program and must reproduce what bench.CPUUtil
	// computed for the same seed.
	seed0 := roundSeed(seed, 0)
	root := tr.begin("round", -1, -1)
	var counts layerCounts
	t0 := time.Now()
	for i, c := range cells {
		if c.flow {
			s := tr.begin("bench.cpuutil", i, root)
			res, _ := runCell(c, seed0, pool)
			tr.end(s)
			t.op(res.err)
			continue
		}
		res := runTracedPacketCell(c, seed0, pool, tr, i, root, &counts)
		if want := rounds[0].cells[i]; res.err == nil && want.err == nil && !res.same(want) {
			res.err = fmt.Errorf("cell %s seed %d: traced program (%d ev, cpu %v) != bench.CPUUtil (%d ev, cpu %v)",
				c.name, seed0, res.events, res.avgCPU, want.events, want.avgCPU)
		}
		t.op(res.err)
	}
	tracedWall := time.Since(t0)
	tr.end(root)
	v["trace.overhead_pct"] = (tracedWall.Seconds()/rounds[0].wall.Seconds() - 1) * 100

	counts.report(v)

	st := pool.Stats()
	v["cluster.pool_hits"] = float64(st.Hits)
	v["cluster.pool_misses"] = float64(st.Misses)
	pool.Drain()
	runtime.GC()
}
