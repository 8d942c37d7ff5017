package bench

import (
	"fmt"
	"time"

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

// TenancySweep runs the multi-tenant grid: job counts × oversubscription
// ratios × placement policies on base's fabric, each cell a pair of
// complete tenancy runs (default vs app-bypass reduction). JCT columns
// come from the app-bypass run — the configuration a production
// scheduler would deploy — while the CPU columns compare the two
// implementations under identical arrivals and placements (same seed,
// same streams). Of base, Specs, Topo (its ratio replaced per row),
// Count, Iters (per tenant job), Seed, Fault and Pool apply; zeros take
// workload.TenancyConfig's defaults. All cells run as one sweep.
func TenancySweep(jobCounts, oversubs []int, places []workload.Placement, meanArrival sim.Time, base Config, workers int) []TenancyPoint {
	var points []TenancyPoint
	var runs []func() workload.TenancyResult
	for _, oversub := range oversubs {
		ft := base.Topo
		ft.Oversub = oversub
		for _, jobs := range jobCounts {
			for _, place := range places {
				points = append(points, TenancyPoint{Jobs: jobs, Oversub: oversub, Place: place.Name()})
				for _, mode := range cpuModes {
					cfg := workload.TenancyConfig{
						Specs: base.Specs, Topo: ft, Seed: base.Seed, Fault: base.Fault,
						Jobs: jobs, MeanArrival: meanArrival,
						Iters: base.Iters, Count: base.Count,
						Style: mode, Place: place, Pool: base.Pool,
					}
					runs = append(runs, func() workload.TenancyResult { return workload.Tenancy(cfg) })
				}
			}
		}
	}
	res := sweep.Run(runs, workers)
	for i := range points {
		nab, ab, p := res[2*i], res[2*i+1], &points[i]
		p.JCTp50US, p.JCTp95US, p.JCTCI95US = us(ab.JCT.P50), us(ab.JCT.P95), us(ab.JCT.CI95)
		p.NabCPUUS, p.AbCPUUS = us(nab.CPU.Mean), us(ab.CPU.Mean)
		if p.AbCPUUS > 0 {
			p.Factor = p.NabCPUUS / p.AbCPUUS
		}
	}
	return points
}

// TenancyFigure is abbench's -fig tenancy table, a pivot of one
// TenancySweep row: JCT and reduction-CPU versus concurrent-job count on
// one oversubscribed fabric, random scatter against greedy locality
// packing. A routed base.Topo picks the fabric (its oversubscription
// kept, defaulting to 8:1); with the default crossbar the figure runs 64
// nodes on fattree:16 at 8:1. Each tenant job runs Iters/20 + 2
// iterations.
func TenancyFigure(base Config, workers int) *Table {
	base.defaults()
	ft := base.Topo
	if ft.Kind == topo.Crossbar {
		ft = topo.Spec{Kind: topo.FatTree, K: 16}
	}
	if ft.Oversub == 0 {
		ft.Oversub = 8
	}
	const nodes = 64
	jobCounts := []int{2, 4, 8}
	base.Specs, base.Topo, base.Iters, base.Count = model.PaperCluster(nodes), ft, base.Iters/20+2, 256
	points := TenancySweep(jobCounts, []int{ft.Oversub},
		[]workload.Placement{workload.RandomPlacement{}, workload.GreedyPlacement{}},
		sim.Time(50*time.Microsecond), base, workers)
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
	for i, jc := range jobCounts {
		rnd, grdy := points[2*i], points[2*i+1]
		t.X = append(t.X, float64(jc))
		t.Rows = append(t.Rows, []float64{rnd.NabCPUUS, rnd.AbCPUUS, rnd.Factor, rnd.JCTp50US,
			grdy.NabCPUUS, grdy.AbCPUUS, grdy.Factor, grdy.JCTp50US, grdy.JCTCI95US})
	}
	return t
}
