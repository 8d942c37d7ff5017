package bench

import (
	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/mpi"
	"abred/internal/sim"
	"abred/internal/stats"
)

// LatencyResult is one latency measurement.
type LatencyResult struct {
	AvgLatency sim.Time
	OneWay     sim.Time  // measured root↔last-node one-way latency
	Rel        RelTotals // fault/reliability activity (zero on a clean fabric)
}

// notifyTag separates notification traffic from benchmark payloads.
const notifyTag = 1 << 20

// Latency runs the paper's latency microbenchmark: no skew; timing
// starts just before the last node (farthest from the root in the
// binomial tree) begins the reduction; when the root completes, it sends
// a notification to the last node, which stops timing and subtracts the
// one-way latency of the notification.
func Latency(cfg Config) LatencyResult {
	cfg.defaults()
	size := len(cfg.Specs)
	cl := cfg.Pool.Get(cfg.clusterConfig())
	defer cfg.Pool.Put(cl)
	const root = 0
	last := coll.LastRank(root, size)

	var oneWay sim.Time
	samples := make([]sim.Time, 0, cfg.Iters)

	cl.Run(func(n *cluster.Node, w *mpi.Comm) {
		if cfg.Mode == AppBypass && cfg.Delay != nil {
			n.Engine.SetDelayPolicy(cfg.Delay)
		}
		in := make([]byte, cfg.Count*8)
		out := make([]byte, cfg.Count*8)
		nbuf := make([]byte, 1)

		// Phase 1: measure root↔last one-way latency as half the
		// average ping-pong round trip, as real benchmarks must.
		if size > 1 {
			const pings = 20
			switch n.ID {
			case root:
				t0 := n.Proc.Now()
				for i := 0; i < pings; i++ {
					w.Send(last, notifyTag, nbuf)
					w.Recv(last, notifyTag, nbuf)
				}
				rtt := (n.Proc.Now() - t0) / pings
				oneWay = rtt / 2
			case last:
				for i := 0; i < pings; i++ {
					w.Recv(root, notifyTag, nbuf)
					w.Send(root, notifyTag, nbuf)
				}
			}
		}
		coll.Barrier(w)

		// Phase 2: timed reductions, barrier-separated.
		for it := 0; it < cfg.Iters; it++ {
			var t0 sim.Time
			if n.ID == last {
				t0 = n.Proc.Now()
			}
			n.Reduce(w, cfg.Mode, in, out, cfg.Count, root)
			if size > 1 {
				if n.ID == root {
					w.Send(last, notifyTag+1, nbuf)
				}
				if n.ID == last {
					w.Recv(root, notifyTag+1, nbuf)
					samples = append(samples, n.Proc.Now()-t0-oneWay)
				}
			} else if n.ID == last {
				samples = append(samples, n.Proc.Now()-t0)
			}
			coll.Barrier(w)
		}
	})

	return LatencyResult{
		AvgLatency: stats.Mean(samples),
		OneWay:     oneWay,
		Rel:        relTotals(cl),
	}
}
