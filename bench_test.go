package abred

// One testing.B benchmark per figure of the paper's evaluation (§VI),
// plus microbenchmarks of the primitives underneath. The figure
// benchmarks report the paper's metrics (microseconds of per-node CPU,
// factor of improvement, reduction latency) via b.ReportMetric; the
// full sweeps that regenerate each figure's table live in cmd/abbench.
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"testing"
	"time"

	"abred/internal/bench"
	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/model"
	"abred/internal/mpi"
	"abred/internal/sim"
)

const benchIters = 12 // virtual iterations per figure sample

func reportCPU(b *testing.B, nab, ab bench.CPUUtilResult) {
	b.ReportMetric(float64(nab.AvgCPU)/float64(time.Microsecond), "nab_cpu_us")
	b.ReportMetric(float64(ab.AvgCPU)/float64(time.Microsecond), "ab_cpu_us")
	b.ReportMetric(float64(nab.AvgCPU)/float64(ab.AvgCPU), "factor")
}

// BenchmarkFig6 samples Fig. 6: CPU utilization and improvement factor
// on 32 heterogeneous nodes as maximum skew grows.
func BenchmarkFig6(b *testing.B) {
	for _, skew := range []time.Duration{0, 200, 600, 1000} {
		skew := skew * time.Microsecond
		for _, count := range []int{4, 128} {
			count := count
			b.Run(fmt.Sprintf("skew=%v/elems=%d", skew, count), func(b *testing.B) {
				var nab, ab bench.CPUUtilResult
				for i := 0; i < b.N; i++ {
					seed := int64(i + 1)
					nab = bench.CPUUtil(bench.Config{Specs: model.PaperCluster32(), Count: count,
						Mode: bench.NonAppBypass, MaxSkew: skew, Iters: benchIters, Seed: seed})
					ab = bench.CPUUtil(bench.Config{Specs: model.PaperCluster32(), Count: count,
						Mode: bench.AppBypass, MaxSkew: skew, Iters: benchIters, Seed: seed})
				}
				reportCPU(b, nab, ab)
			})
		}
	}
}

// BenchmarkFig7 samples Fig. 7: the improvement factor versus system
// size at maximum skew (1000 µs).
func BenchmarkFig7(b *testing.B) {
	for _, size := range []int{4, 8, 16, 32} {
		size := size
		b.Run(fmt.Sprintf("nodes=%d", size), func(b *testing.B) {
			var nab, ab bench.CPUUtilResult
			for i := 0; i < b.N; i++ {
				seed := int64(i + 1)
				nab = bench.CPUUtil(bench.Config{Specs: model.PaperCluster(size), Count: 4,
					Mode: bench.NonAppBypass, MaxSkew: time.Millisecond, Iters: benchIters, Seed: seed})
				ab = bench.CPUUtil(bench.Config{Specs: model.PaperCluster(size), Count: 4,
					Mode: bench.AppBypass, MaxSkew: time.Millisecond, Iters: benchIters, Seed: seed})
			}
			reportCPU(b, nab, ab)
		})
	}
}

// BenchmarkFig8 samples Fig. 8: CPU utilization without artificial skew;
// only natural (barrier-release and hardware) skew drives the gap.
func BenchmarkFig8(b *testing.B) {
	for _, size := range []int{8, 32} {
		size := size
		for _, count := range []int{4, 128} {
			count := count
			b.Run(fmt.Sprintf("nodes=%d/elems=%d", size, count), func(b *testing.B) {
				var nab, ab bench.CPUUtilResult
				for i := 0; i < b.N; i++ {
					seed := int64(i + 1)
					nab = bench.CPUUtil(bench.Config{Specs: model.PaperCluster(size), Count: count,
						Mode: bench.NonAppBypass, Iters: benchIters, Seed: seed})
					ab = bench.CPUUtil(bench.Config{Specs: model.PaperCluster(size), Count: count,
						Mode: bench.AppBypass, Iters: benchIters, Seed: seed})
				}
				reportCPU(b, nab, ab)
			})
		}
	}
}

// BenchmarkFig9 samples Fig. 9: single-element reduction latency on the
// heterogeneous cluster (a) and the homogeneous 700 MHz cluster (b).
func BenchmarkFig9(b *testing.B) {
	run := func(b *testing.B, specs []model.NodeSpec) {
		var nab, ab bench.LatencyResult
		for i := 0; i < b.N; i++ {
			seed := int64(i + 1)
			nab = bench.Latency(bench.Config{Specs: specs, Count: 1, Mode: bench.NonAppBypass, Iters: benchIters, Seed: seed})
			ab = bench.Latency(bench.Config{Specs: specs, Count: 1, Mode: bench.AppBypass, Iters: benchIters, Seed: seed})
		}
		b.ReportMetric(float64(nab.AvgLatency)/float64(time.Microsecond), "nab_lat_us")
		b.ReportMetric(float64(ab.AvgLatency)/float64(time.Microsecond), "ab_lat_us")
	}
	for _, size := range []int{2, 8, 32} {
		size := size
		b.Run(fmt.Sprintf("hetero/nodes=%d", size), func(b *testing.B) { run(b, model.PaperCluster(size)) })
	}
	for _, size := range []int{2, 8, 16} {
		size := size
		b.Run(fmt.Sprintf("homog700/nodes=%d", size), func(b *testing.B) { run(b, model.Homogeneous700(size)) })
	}
}

// BenchmarkFig10 samples Fig. 10: reduction latency versus message size
// on 32 nodes; the ab-nab gap should stay roughly constant.
func BenchmarkFig10(b *testing.B) {
	for _, count := range []int{1, 16, 128} {
		count := count
		b.Run(fmt.Sprintf("elems=%d", count), func(b *testing.B) {
			var nab, ab bench.LatencyResult
			for i := 0; i < b.N; i++ {
				seed := int64(i + 1)
				nab = bench.Latency(bench.Config{Specs: model.PaperCluster32(), Count: count, Mode: bench.NonAppBypass, Iters: benchIters, Seed: seed})
				ab = bench.Latency(bench.Config{Specs: model.PaperCluster32(), Count: count, Mode: bench.AppBypass, Iters: benchIters, Seed: seed})
			}
			b.ReportMetric(float64(nab.AvgLatency)/float64(time.Microsecond), "nab_lat_us")
			b.ReportMetric(float64(ab.AvgLatency)/float64(time.Microsecond), "ab_lat_us")
			b.ReportMetric(float64(ab.AvgLatency-nab.AvgLatency)/float64(time.Microsecond), "gap_us")
		})
	}
}

// BenchmarkAblationDelay measures the §IV-E exit-delay heuristic: how
// lingering in MPI_Reduce trades signals for in-call time.
func BenchmarkAblationDelay(b *testing.B) {
	for _, delay := range []time.Duration{0, 15 * time.Microsecond, 60 * time.Microsecond} {
		delay := delay
		b.Run(fmt.Sprintf("delay=%v", delay), func(b *testing.B) {
			var r bench.CPUUtilResult
			for i := 0; i < b.N; i++ {
				cfg := bench.Config{Specs: model.PaperCluster32(), Count: 4, Mode: bench.AppBypass,
					MaxSkew: 200 * time.Microsecond, Iters: benchIters, Seed: int64(i + 1)}
				if delay > 0 {
					cfg.Delay = fixedDelay(delay)
				}
				r = bench.CPUUtil(cfg)
			}
			b.ReportMetric(float64(r.AvgCPU)/float64(time.Microsecond), "ab_cpu_us")
			b.ReportMetric(float64(r.Signals), "signals")
		})
	}
}

// BenchmarkAblationNICReduce measures the NIC-based extension against
// the host-side implementations.
func BenchmarkAblationNICReduce(b *testing.B) {
	for _, count := range []int{4, 128} {
		count := count
		b.Run(fmt.Sprintf("elems=%d", count), func(b *testing.B) {
			var nic bench.CPUUtilResult
			for i := 0; i < b.N; i++ {
				nic = bench.CPUUtil(bench.Config{Specs: model.PaperCluster32(), Count: count,
					Mode: coll.AlgoNIC, MaxSkew: 500 * time.Microsecond, Iters: benchIters, Seed: int64(i + 1)})
			}
			b.ReportMetric(float64(nic.AvgCPU)/float64(time.Microsecond), "nic_cpu_us")
		})
	}
}

// BenchmarkScaleProjection extends the comparison to 128 nodes (the
// paper's §VII future work).
func BenchmarkScaleProjection(b *testing.B) {
	for _, size := range []int{64, 128} {
		size := size
		b.Run(fmt.Sprintf("nodes=%d", size), func(b *testing.B) {
			var nab, ab bench.CPUUtilResult
			for i := 0; i < b.N; i++ {
				seed := int64(i + 1)
				nab = bench.CPUUtil(bench.Config{Specs: model.PaperCluster(size), Count: 4,
					Mode: bench.NonAppBypass, MaxSkew: time.Millisecond, Iters: 6, Seed: seed})
				ab = bench.CPUUtil(bench.Config{Specs: model.PaperCluster(size), Count: 4,
					Mode: bench.AppBypass, MaxSkew: time.Millisecond, Iters: 6, Seed: seed})
			}
			reportCPU(b, nab, ab)
		})
	}
}

// BenchmarkReduceRound measures one full reduction round (reduce +
// barrier) across a 32-node virtual cluster, per implementation — the
// cost of simulating the paper's unit of work.
func BenchmarkReduceRound(b *testing.B) {
	for _, mode := range []struct {
		name string
		ab   bool
	}{{"default", false}, {"app-bypass", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			cl := cluster.New(cluster.Config{Specs: model.PaperCluster32(), Seed: 1})
			b.ResetTimer()
			cl.Run(func(n *cluster.Node, w *mpi.Comm) {
				in := make([]byte, 32)
				out := make([]byte, 32)
				for i := 0; i < b.N; i++ {
					if mode.ab {
						n.Engine.Reduce(w, in, out, 4, mpi.Float64, mpi.OpSum, 0)
					} else {
						coll.Reduce(w, in, out, 4, mpi.Float64, mpi.OpSum, 0)
					}
					coll.Barrier(w)
				}
			})
		})
	}
}

// BenchmarkOpKernels measures the reduction arithmetic kernels.
func BenchmarkOpKernels(b *testing.B) {
	for _, count := range []int{4, 128, 4096} {
		count := count
		b.Run(fmt.Sprintf("sum-float64-%d", count), func(b *testing.B) {
			dst := make([]byte, count*8)
			src := make([]byte, count*8)
			b.SetBytes(int64(count * 8))
			for i := 0; i < b.N; i++ {
				mpi.Apply(mpi.OpSum, mpi.Float64, dst, src, count)
			}
		})
	}
}

// BenchmarkSimKernel measures raw event throughput of the DES kernel.
func BenchmarkSimKernel(b *testing.B) {
	b.Run("events", func(b *testing.B) {
		k := sim.New(1)
		n := 0
		var fn func()
		fn = func() {
			n++
			if n < b.N {
				k.After(time.Microsecond, fn)
			}
		}
		k.After(time.Microsecond, fn)
		k.Run()
	})
	b.Run("proc-switch", func(b *testing.B) {
		k := sim.New(1)
		k.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		k.Run()
	})
}

// fixedDelay adapts a duration to the core.DelayPolicy interface via
// the bench config (kept local to avoid exporting test helpers).
type fixedDelay time.Duration

func (f fixedDelay) Delay(int, int) sim.Time { return sim.Time(f) }

// BenchmarkAblationRendezvousAB measures the §V-B rendezvous-mode
// extension against the paper's large-message fallback.
func BenchmarkAblationRendezvousAB(b *testing.B) {
	for _, rv := range []bool{false, true} {
		rv := rv
		name := "fallback"
		if rv {
			name = "rendezvous-ab"
		}
		b.Run(name, func(b *testing.B) {
			var r bench.CPUUtilResult
			for i := 0; i < b.N; i++ {
				r = bench.CPUUtil(bench.Config{Specs: model.PaperCluster(8), Count: 4096,
					Mode: bench.AppBypass, MaxSkew: 800 * time.Microsecond,
					Iters: 6, Seed: int64(i + 1), RendezvousAB: rv})
			}
			b.ReportMetric(float64(r.AvgCPU)/float64(time.Microsecond), "cpu_us")
		})
	}
}
