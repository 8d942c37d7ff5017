package bench

import (
	"fmt"
	"time"

	"abred/internal/cluster"
	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/sweep"
	"abred/internal/topo"
	"abred/internal/workload"
)

// TenancyPoint is one (job count, oversubscription, placement) cell of
// the multi-tenant sweep: per-job JCT percentiles with confidence
// half-widths, reduction-CPU means for both reduction implementations,
// and the AB-vs-binomial advantage under that contention level.
type TenancyPoint struct {
	Jobs      int
	Oversub   int
	Place     string
	JCTp50US  float64
	JCTp95US  float64
	JCTCI95US float64
	NabCPUUS  float64
	AbCPUUS   float64
	Factor    float64 // nab/ab reduction-CPU advantage
}

// tenancyJob wraps one full multi-tenant run as a sweep job. Its value
// is [mean reduction-CPU µs, JCT p50 µs, JCT p95 µs, JCT CI95 µs].
func tenancyJob(name string, cfg workload.TenancyConfig) sweep.Job[[]float64] {
	return sweep.Job[[]float64]{Name: name, Seed: cfg.Seed, Run: func() ([]float64, uint64) {
		r := workload.Tenancy(cfg)
		return []float64{
			float64(r.CPU.Mean) / float64(time.Microsecond),
			float64(r.JCT.P50) / float64(time.Microsecond),
			float64(r.JCT.P95) / float64(time.Microsecond),
			float64(r.JCT.CI95) / float64(time.Microsecond),
		}, r.Events
	}}
}

// TenancyFigure is abbench's -fig tenancy table: JCT and reduction-CPU
// versus concurrent-job count on one oversubscribed fabric, random
// scatter against greedy locality packing. A routed -topo picks the
// fabric (its oversubscription kept, defaulting to 8:1); with the
// default crossbar the figure runs 64 nodes on fattree:16 at 8:1.
func TenancyFigure(o Opts) *Table {
	o = o.withDefaults()
	ft := o.Topo
	if ft.Kind == topo.Crossbar {
		ft = topo.Spec{Kind: topo.FatTree, K: 16}
	}
	if ft.Oversub == 0 {
		ft.Oversub = 8
	}
	const nodes = 64
	jobCounts := []int{2, 4, 8}
	places := []workload.Placement{workload.RandomPlacement{}, workload.GreedyPlacement{}}
	t := &Table{
		Title: fmt.Sprintf("Tenancy — concurrent jobs on %d nodes, %s", nodes, ft),
		XName: "jobs",
		Cols: []string{"rand_nab", "rand_ab", "rand_factor", "rand_jct_p50",
			"grdy_nab", "grdy_ab", "grdy_factor", "grdy_jct_p50", "grdy_jct_ci95"},
		Notes: []string{
			"Poisson arrivals; every job reduces on its own sub-communicator",
			"while sharing the oversubscribed fabric. nab/ab columns are the",
			"mean per-node reduction CPU (µs); jct columns are per-job",
			"completion-time percentiles (µs) from the ab runs.",
		},
	}
	var jobs []sweep.Job[[]float64]
	for _, jc := range jobCounts {
		for _, place := range places {
			for _, style := range []workload.Style{workload.StyleDefault, workload.StyleBypass} {
				jobs = append(jobs, tenancyJob(
					fmt.Sprintf("tenancy/j=%d/%s/%s", jc, place.Name(), style),
					workload.TenancyConfig{
						Specs: model.PaperCluster(nodes), Topo: ft, Seed: o.Seed,
						Fault: o.Fault, Jobs: jc, Iters: o.Iters/20 + 2, Count: 256,
						MeanArrival: sim.Time(50 * time.Microsecond),
						Style:       style, Place: place, Pool: o.Pool,
					}))
			}
		}
	}
	return runGrid(t, floats(jobCounts), jobs, func(cells [][]float64) []float64 {
		randNab, randAb := cells[0], cells[1]
		grdyNab, grdyAb := cells[2], cells[3]
		return []float64{randNab[0], randAb[0], randNab[0] / randAb[0], randAb[1],
			grdyNab[0], grdyAb[0], grdyNab[0] / grdyAb[0], grdyAb[1], grdyAb[3]}
	}, o.Workers)
}

// TenancySweep runs the multi-tenant grid: job counts × oversubscription
// ratios × placement policies on one fabric spec, each cell a pair of
// complete tenancy runs (default vs app-bypass reduction) on a shared
// warm cluster. JCT columns come from the app-bypass run — the
// configuration a production scheduler would deploy — while the CPU
// columns compare the two implementations under identical arrivals and
// placements (same seed, same streams). Of o, Iters (per tenant job),
// Seed, Workers and Fault apply.
func TenancySweep(specs []model.NodeSpec, base topo.Spec, jobCounts, oversubs []int,
	places []workload.Placement, meanArrival sim.Time, count int, o Opts) []TenancyPoint {
	var points []TenancyPoint
	for _, oversub := range oversubs {
		ft := base
		ft.Oversub = oversub
		pool := cluster.NewPool()
		for _, jobs := range jobCounts {
			for _, place := range places {
				mk := func(style workload.Style) workload.TenancyConfig {
					return workload.TenancyConfig{
						Specs: specs, Topo: ft, Seed: o.Seed, Fault: o.Fault,
						Jobs: jobs, MeanArrival: meanArrival,
						Iters: o.Iters, Count: count,
						Style: style, Place: place, Pool: pool,
					}
				}
				var nab, ab workload.TenancyResult
				sweep.Run(fmt.Sprintf("tenancy/j=%d/o=%d/%s", jobs, oversub, place.Name()),
					[]sweep.Job[int]{
						{Name: "tenancy/nab", Seed: o.Seed, Run: func() (int, uint64) {
							nab = workload.Tenancy(mk(workload.StyleDefault))
							return 0, nab.Events
						}},
						{Name: "tenancy/ab", Seed: o.Seed, Run: func() (int, uint64) {
							ab = workload.Tenancy(mk(workload.StyleBypass))
							return 0, ab.Events
						}},
					}, o.Workers)
				p := TenancyPoint{
					Jobs: jobs, Oversub: oversub, Place: place.Name(),
					JCTp50US:  float64(ab.JCT.P50) / float64(time.Microsecond),
					JCTp95US:  float64(ab.JCT.P95) / float64(time.Microsecond),
					JCTCI95US: float64(ab.JCT.CI95) / float64(time.Microsecond),
					NabCPUUS:  float64(nab.CPU.Mean) / float64(time.Microsecond),
					AbCPUUS:   float64(ab.CPU.Mean) / float64(time.Microsecond),
				}
				if p.AbCPUUS > 0 {
					p.Factor = p.NabCPUUS / p.AbCPUUS
				}
				points = append(points, p)
			}
		}
		pool.Drain()
	}
	return points
}
