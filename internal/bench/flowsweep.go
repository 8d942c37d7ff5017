package bench

import (
	"runtime"
	"runtime/metrics"
	"time"

	"abred/internal/cluster"
	"abred/internal/model"
	"abred/internal/sim"
)

// FlowPoint is one node count of the flow-engine scaling sweep: the
// paper's nab/ab comparison, the ab run's p99 flow completion time, and
// the execution-cost columns that certify the point was simulable at
// all: wall time, events and peak live heap (liveHeapPeak) of the
// size's two runs, the heap read while their pooled cluster is held.
type FlowPoint struct {
	Nodes    int
	NabUS    float64
	AbUS     float64
	Factor   float64
	WallMS   float64
	Events   uint64
	LivePeak uint64
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
		wall, live := liveHeapPeak(func() {
			nab = CPUUtil(mk(NonAppBypass, false))
			ab = CPUUtil(mk(AppBypass, true))
		})
		pool.Drain()
		p := FlowPoint{
			Nodes:    n,
			NabUS:    float64(nab.AvgCPU) / float64(time.Microsecond),
			AbUS:     float64(ab.AvgCPU) / float64(time.Microsecond),
			WallMS:   float64(wall) / float64(time.Millisecond),
			Events:   nab.Events + ab.Events,
			LivePeak: live,
			FCTp99US: float64(ab.FCT.P99) / float64(time.Microsecond),
		}
		if p.AbUS > 0 {
			p.Factor = p.NabUS / p.AbUS
		}
		points = append(points, p)
	}
	return points
}

// liveHeapPeak runs fn and returns its wall time and the largest live
// heap seen: /gc/heap/live:bytes, the heap the last GC cycle marked
// reachable, sampled every 25 ms plus once at each end. Garbage not yet
// collected is not in it, so it reads what the runs need rather than
// how far the GC let the heap grow — the number that decides whether a
// 1M-node point fits on the machine at all. A sample reads whatever the
// last cycle marked, and at the largest sizes every cycle can fall
// inside the first cluster build, so one more cycle after fn, with the
// wall clock stopped, adds what fn's results still hold.
func liveHeapPeak(fn func()) (time.Duration, uint64) {
	peak := liveBytes()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		// Low-rate sampler; 25 ms catches every GC cycle of a run that
		// lives long enough to matter, and reading a runtime metric
		// does not stop the world.
		defer close(done)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, liveBytes())
			}
		}
	}()
	start := time.Now()
	fn()
	wall := time.Since(start)
	close(stop)
	<-done
	peak = max(peak, liveBytes())
	runtime.GC()
	return wall, max(peak, liveBytes())
}

// liveBytes reads the heap the last GC cycle marked live.
func liveBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
