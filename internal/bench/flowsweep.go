package bench

import (
	"fmt"
	"runtime"
	"time"

	"abred/internal/cluster"
	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/sweep"
)

// FlowPoint is one node count of the flow-engine scaling sweep: the
// paper's nab/ab comparison plus the execution-cost columns (wall,
// events, peak live heap) that certify the point was simulable at all, and
// the flow-completion-time percentiles from the ab run. LivePeak is the
// larger of the sweep's sampled live-heap peak and the live heap after
// a GC run once both cells have finished, while their pooled cluster
// is still held.
type FlowPoint struct {
	Nodes    int
	NabUS    float64
	AbUS     float64
	Factor   float64
	WallMS   float64
	Events   uint64
	LivePeak uint64
	FCTp50US float64
	FCTp95US float64
	FCTp99US float64
}

// FlowSweep runs the flow-engine CPU-utilization grid: for each size,
// the interlaced heterogeneous node mix on the routed fabric, skewed,
// non-bypass versus bypass (with the topology-aware tree). Each size's
// two runs share a pooled cluster of their own and execute serially so
// the wall and heap columns describe that size alone; of base, Iters,
// Seed, Fault, Topo (the routed fabric) and LPs apply (the flow engine
// models a uniform drop rule only; LPs shards the max-min substrate
// along the fabric's pods).
func FlowSweep(sizes []int, maxSkew sim.Time, count int, base Config) []FlowPoint {
	base.Count, base.MaxSkew, base.Engine = count, maxSkew, cluster.EngineFlow
	points := make([]FlowPoint, 0, len(sizes))
	for _, n := range sizes {
		pool := cluster.NewPool()
		mk := func(mode Mode, topoAware bool) Config {
			c := base
			c.Specs, c.Mode, c.TopoAware, c.Pool = model.PaperCluster(n), mode, topoAware, pool
			return c
		}
		var nab, ab CPUUtilResult
		res := sweep.Run(fmt.Sprintf("flow/n=%d", n), []sweep.Job[int]{
			{Name: fmt.Sprintf("flow/nab/n=%d", n), Seed: base.Seed, Run: func() (int, uint64) {
				nab = CPUUtil(mk(NonAppBypass, false))
				return 0, nab.Events
			}},
			{Name: fmt.Sprintf("flow/ab/n=%d", n), Seed: base.Seed, Run: func() (int, uint64) {
				ab = CPUUtil(mk(AppBypass, true))
				return 0, ab.Events
			}},
		}, 1)
		// The sampled peak reads whatever the last GC cycle marked, and
		// at the largest sizes every cycle can fall inside the first
		// cluster build. One more cycle here, with the pooled cluster
		// still held and the wall clock stopped, reads what a cell
		// keeps.
		runtime.GC()
		live := max(res.Perf.LivePeak, sweep.LiveBytes())
		pool.Drain()
		p := FlowPoint{
			Nodes:    n,
			NabUS:    float64(nab.AvgCPU) / float64(time.Microsecond),
			AbUS:     float64(ab.AvgCPU) / float64(time.Microsecond),
			WallMS:   float64(res.Perf.Wall) / float64(time.Millisecond),
			Events:   res.Perf.Events,
			LivePeak: live,
			FCTp50US: float64(ab.FCT.P50) / float64(time.Microsecond),
			FCTp95US: float64(ab.FCT.P95) / float64(time.Microsecond),
			FCTp99US: float64(ab.FCT.P99) / float64(time.Microsecond),
		}
		if p.AbUS > 0 {
			p.Factor = p.NabUS / p.AbUS
		}
		points = append(points, p)
	}
	return points
}
