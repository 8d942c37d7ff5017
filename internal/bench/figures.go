package bench

import (
	"fmt"
	"time"

	"abred/internal/cluster"
	"abred/internal/core"
	"abred/internal/fault"
	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/sweep"
	"abred/internal/topo"
)

// This file regenerates every figure of the paper's evaluation (§VI).
// Each runner declares its parameter grid — sizes × counts × skews ×
// cluster specs — as a list of independent sweep jobs (one simulation
// per cell) and hands it to the sweep engine, which executes the cells
// on a worker pool and reassembles rows in declaration order. Tables are
// therefore byte-identical for any worker count. Iters trades precision
// for run time; the paper used 10,000, which also works here but is not
// needed for stable virtual-time averages.

// Opts parameterizes figure regeneration.
type Opts struct {
	Iters   int   // benchmark iterations per data point (0 = 200)
	Seed    int64 // simulation seed; identical seeds reproduce tables exactly
	Workers int   // sweep worker pool size (0 = GOMAXPROCS)

	// Fault injects fabric faults into every simulated cluster (the
	// -loss/-faultseed flags); zero value = perfect fabric.
	Fault fault.Config

	// Pool, when set, lets every cell of every grid reuse built
	// clusters instead of reconstructing them (see Config.Pool). Grids
	// revisit the same few cluster shapes hundreds of times, so this
	// removes nearly all construction cost from a figure run without
	// changing a byte of its table.
	Pool *cluster.Pool

	// Topo selects the interconnect for every simulated cluster (the
	// -topo flag); the zero value is the historical single crossbar,
	// under which every figure reproduces byte-identically.
	Topo topo.Spec

	// LPs partitions each simulated cluster into up to LPs logical
	// processes run in parallel (the -lps flag; see cluster.Config.LPs).
	// Effective only where a routed topology gives the partition pods;
	// the large-N and topology sweeps thread it through.
	LPs int
}

func (o Opts) withDefaults() Opts {
	if o.Iters == 0 {
		o.Iters = 200
	}
	if o.Seed == 0 {
		o.Seed = 20030701 // CLUSTER 2003
	}
	return o
}

// us converts to microseconds for table cells.
func us(d sim.Time) float64 { return float64(d) / float64(time.Microsecond) }

// PaperSkews are Fig. 6's x axis: maximum skew 0–1000 µs.
func PaperSkews() []sim.Time {
	var skews []sim.Time
	for s := 0; s <= 1000; s += 100 {
		skews = append(skews, sim.Time(s)*time.Microsecond)
	}
	return skews
}

// PaperSizes are the node counts of Figs. 7–9: 2, 4, 8, 16, 32.
func PaperSizes() []int { return []int{2, 4, 8, 16, 32} }

// PaperCounts are the message sizes of Figs. 6–8 in double words.
func PaperCounts() []int { return []int{4, 32, 128} }

// cpuJob wraps one CPU-utilization simulation as a pure sweep job. Its
// value is [avg CPU µs, signals].
func cpuJob(name string, cfg Config) sweep.Job[[]float64] {
	return sweep.Job[[]float64]{Name: name, Seed: cfg.Seed, Run: func() ([]float64, uint64) {
		r := CPUUtil(cfg)
		return []float64{us(r.AvgCPU), float64(r.Signals)}, r.Events
	}}
}

// latJob wraps one latency simulation as a pure sweep job. Its value is
// [avg latency µs].
func latJob(name string, cfg Config) sweep.Job[[]float64] {
	return sweep.Job[[]float64]{Name: name, Seed: cfg.Seed, Run: func() ([]float64, uint64) {
		r := Latency(cfg)
		return []float64{us(r.AvgLatency)}, r.Events
	}}
}

// runGrid executes a figure's cells (row-major: len(jobs)/len(xs) cells
// per x) through the sweep engine and assembles each row with mk.
func runGrid(t *Table, xs []float64, jobs []sweep.Job[[]float64], mk func(cells [][]float64) []float64, workers int) *Table {
	per := len(jobs) / len(xs)
	vals := sweep.Run(t.Title, jobs, workers).Values()
	for i, x := range xs {
		t.X = append(t.X, x)
		t.Rows = append(t.Rows, mk(vals[i*per:(i+1)*per]))
	}
	return t
}

// cpuModes is the implementation pair every comparison figure sweeps.
var cpuModes = []Mode{NonAppBypass, AppBypass}

// cpuGrid declares the standard CPU-utilization figure: for each x a nab
// series and an ab series across counts, plus nab/ab factor columns.
func cpuGrid(t *Table, fig string, xs []float64, counts []int, cfg func(xi, count int, mode Mode) Config, o Opts) *Table {
	var jobs []sweep.Job[[]float64]
	for xi, x := range xs {
		for _, mode := range cpuModes {
			for _, count := range counts {
				jobs = append(jobs, cpuJob(
					fmt.Sprintf("%s/x=%v/%s/n=%d", fig, x, mode, count),
					cfg(xi, count, mode)))
			}
		}
	}
	return runGrid(t, xs, jobs, func(cells [][]float64) []float64 {
		row := make([]float64, 0, 3*len(counts))
		for _, c := range cells {
			row = append(row, c[0])
		}
		return factorCols(row, len(counts))
	}, o.Workers)
}

// pairGrid declares a two-implementation comparison: per x, runs cfg(x,0)
// and cfg(x,1), rendering each row as [a, b, a/b].
func pairGrid(t *Table, fig string, names [2]string, xs []float64, cfg func(xi, j int) Config, o Opts) *Table {
	var jobs []sweep.Job[[]float64]
	for xi, x := range xs {
		for j := 0; j < 2; j++ {
			jobs = append(jobs, cpuJob(fmt.Sprintf("%s/x=%v/%s", fig, x, names[j]), cfg(xi, j)))
		}
	}
	return runGrid(t, xs, jobs, func(cells [][]float64) []float64 {
		a, b := cells[0][0], cells[1][0]
		return []float64{a, b, a / b}
	}, o.Workers)
}

// latGrid declares a latency comparison: per x a nab and an ab run,
// rendered as [nab, ab, ab-nab].
func latGrid(t *Table, fig string, xs []float64, cfg func(xi int, mode Mode) Config, o Opts) *Table {
	var jobs []sweep.Job[[]float64]
	for xi, x := range xs {
		for _, mode := range cpuModes {
			jobs = append(jobs, latJob(fmt.Sprintf("%s/x=%v/%s", fig, x, mode), cfg(xi, mode)))
		}
	}
	return runGrid(t, xs, jobs, func(cells [][]float64) []float64 {
		nab, ab := cells[0][0], cells[1][0]
		return []float64{nab, ab, ab - nab}
	}, o.Workers)
}

// factorCols appends nab/ab improvement-factor columns to a row laid out
// as nab cells then ab cells.
func factorCols(row []float64, counts int) []float64 {
	for j := 0; j < counts; j++ {
		row = append(row, row[j]/row[counts+j])
	}
	return row
}

// seriesCols builds the column names for cpuGrid output.
func seriesCols(counts []int) []string {
	var cols []string
	for _, prefix := range []string{"nab-", "ab-"} {
		for _, c := range counts {
			cols = append(cols, prefix+trimFloat(float64(c)))
		}
	}
	for _, c := range counts {
		cols = append(cols, "factor-"+trimFloat(float64(c)))
	}
	return cols
}

// floats converts an int axis to table x values.
func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Fig6 regenerates Fig. 6: average CPU utilization (a) and factor of
// improvement (b) for 32 nodes under varying maximum skew, with 4-, 32-
// and 128-element double-word messages.
func Fig6(o Opts) *Table {
	o = o.withDefaults()
	counts := PaperCounts()
	t := &Table{
		Title: "Fig. 6 — CPU utilization vs. max skew (32 nodes, heterogeneous)",
		XName: "skew_us",
		Cols:  seriesCols(counts),
		Notes: []string{
			"Paper: nab grows ~linearly with skew, ab stays nearly flat;",
			"maximum factor of improvement 5.1 at 4 elements / 1000 us.",
		},
	}
	specs := model.PaperCluster32()
	skews := PaperSkews()
	xs := make([]float64, len(skews))
	for i, s := range skews {
		xs[i] = us(s)
	}
	return cpuGrid(t, "fig6", xs, counts, func(xi, count int, mode Mode) Config {
		return Config{Specs: specs, Count: count, Mode: mode, MaxSkew: skews[xi], Iters: o.Iters, Seed: o.Seed, Pool: o.Pool, Fault: o.Fault, Topo: o.Topo}
	}, o)
}

// Fig7 regenerates Fig. 7: CPU utilization and factor of improvement
// versus system size at maximum skew 1000 µs.
func Fig7(o Opts) *Table {
	o = o.withDefaults()
	counts := PaperCounts()
	t := &Table{
		Title: "Fig. 7 — CPU utilization vs. nodes (max skew 1000 us)",
		XName: "nodes",
		Cols:  seriesCols(counts),
		Notes: []string{
			"Paper: factor of improvement increases with the number of",
			"nodes, reaching 5.1 at 32 nodes / 4 elements.",
		},
	}
	sizes := PaperSizes()
	return cpuGrid(t, "fig7", floats(sizes), counts, func(xi, count int, mode Mode) Config {
		return Config{Specs: model.PaperCluster(sizes[xi]), Count: count, Mode: mode,
			MaxSkew: 1000 * time.Microsecond, Iters: o.Iters, Seed: o.Seed, Pool: o.Pool, Fault: o.Fault, Topo: o.Topo}
	}, o)
}

// Fig8 regenerates Fig. 8: CPU utilization and factor of improvement
// versus system size without artificial skew.
func Fig8(o Opts) *Table {
	o = o.withDefaults()
	counts := PaperCounts()
	t := &Table{
		Title: "Fig. 8 — CPU utilization vs. nodes (no artificial skew)",
		XName: "nodes",
		Cols:  seriesCols(counts),
		Notes: []string{
			"Paper: naturally-occurring skew grows with system size; ab",
			"crosses above nab earlier for larger messages, max factor 1.5",
			"at 32 nodes / 128 elements.",
		},
	}
	sizes := PaperSizes()
	return cpuGrid(t, "fig8", floats(sizes), counts, func(xi, count int, mode Mode) Config {
		return Config{Specs: model.PaperCluster(sizes[xi]), Count: count, Mode: mode, Iters: o.Iters, Seed: o.Seed, Pool: o.Pool, Fault: o.Fault, Topo: o.Topo}
	}, o)
}

// Fig9 regenerates Fig. 9: reduction latency versus system size without
// skew for single-element messages, on the heterogeneous cluster (a) and
// the homogeneous 700 MHz cluster (b).
func Fig9(o Opts) (hetero, homog *Table) {
	o = o.withDefaults()
	mk := func(title, fig string, sizes []int, specsFor func(int) []model.NodeSpec) *Table {
		t := &Table{
			Title: title,
			XName: "nodes",
			Cols:  []string{"nab", "ab", "ab-nab"},
			Notes: []string{
				"Paper: ab and nab nearly identical up to 4 nodes, then ab",
				"pays a signal overhead that stabilizes (Fig. 10).",
			},
		}
		return latGrid(t, fig, floats(sizes), func(xi int, mode Mode) Config {
			return Config{Specs: specsFor(sizes[xi]), Count: 1, Mode: mode, Iters: o.Iters, Seed: o.Seed, Pool: o.Pool, Fault: o.Fault, Topo: o.Topo}
		}, o)
	}
	hetero = mk("Fig. 9a — reduce latency vs. nodes (heterogeneous, 1 element)", "fig9a", PaperSizes(), model.PaperCluster)
	homog = mk("Fig. 9b — reduce latency vs. nodes (homogeneous 700 MHz, 1 element)", "fig9b", []int{2, 4, 8, 16}, model.Homogeneous700)
	return hetero, homog
}

// Fig10 regenerates Fig. 10: reduction latency versus message size for
// 32 nodes without skew.
func Fig10(o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		Title: "Fig. 10 — reduce latency vs. message size (32 nodes)",
		XName: "elements",
		Cols:  []string{"nab", "ab", "ab-nab"},
		Notes: []string{
			"Paper: the ab latency penalty stabilizes and remains fairly",
			"constant as the number of elements increases.",
		},
	}
	specs := model.PaperCluster32()
	counts := []int{1, 2, 4, 8, 16, 32, 64, 128}
	return latGrid(t, "fig10", floats(counts), func(xi int, mode Mode) Config {
		return Config{Specs: specs, Count: counts[xi], Mode: mode, Iters: o.Iters, Seed: o.Seed, Pool: o.Pool, Fault: o.Fault, Topo: o.Topo}
	}, o)
}

// ScaleProjection extends Fig. 7/8 beyond the paper's 32 nodes — its
// stated future work ("evaluate the performance of application-bypass
// operations on large-scale clusters") — by replicating the interlaced
// node mix up to the requested sizes.
func ScaleProjection(sizes []int, skew sim.Time, count int, o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		Title: "Scalability projection — CPU utilization vs. nodes",
		XName: "nodes",
		Cols:  []string{"nab", "ab", "factor"},
		Notes: []string{
			"Extension of Figs. 7/8 past the paper's 32-node testbed.",
		},
	}
	return pairGrid(t, "scale", [2]string{"nab", "ab"}, floats(sizes), func(xi, j int) Config {
		return Config{Specs: model.PaperCluster(sizes[xi]), Count: count, Mode: cpuModes[j],
			MaxSkew: skew, Iters: o.Iters, Seed: o.Seed, Pool: o.Pool, Fault: o.Fault,
			Topo: o.Topo, LPs: o.LPs}
	}, o)
}

// AblationDelay quantifies the §IV-E exit-delay heuristic: CPU
// utilization and signal counts with and without lingering.
func AblationDelay(size, count int, skew sim.Time, o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		Title: "Ablation — §IV-E exit delay (ab mode)",
		XName: "delay_us",
		Cols:  []string{"avg_cpu", "signals"},
		Notes: []string{
			"Delay 0 is the paper's default. Longer delays catch straggler",
			"children inside MPI_Reduce, trading latency for fewer signals.",
		},
	}
	specs := model.PaperCluster(size)
	delays := []sim.Time{0, 5 * time.Microsecond, 15 * time.Microsecond, 30 * time.Microsecond, 60 * time.Microsecond}
	var jobs []sweep.Job[[]float64]
	xs := make([]float64, len(delays))
	for i, d := range delays {
		xs[i] = us(d)
		var pol core.DelayPolicy
		if d > 0 {
			pol = core.FixedDelay{D: d}
		}
		jobs = append(jobs, cpuJob(fmt.Sprintf("delay/x=%v", d),
			Config{Specs: specs, Count: count, Mode: AppBypass, MaxSkew: skew, Iters: o.Iters, Seed: o.Seed, Pool: o.Pool, Fault: o.Fault, Topo: o.Topo, Delay: pol}))
	}
	return runGrid(t, xs, jobs, func(cells [][]float64) []float64 {
		return []float64{cells[0][0], cells[0][1]}
	}, o.Workers)
}

// AblationSignalCost sweeps the modeled cost of one NIC-raised signal.
// Every crossover in Figs. 8–10 depends on this constant (the paper
// calls interrupts "a substantial performance penalty" without
// quantifying); the sweep shows how robust the headline factor is.
func AblationSignalCost(size, count int, skew sim.Time, o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		Title: "Ablation — signal-cost sensitivity",
		XName: "signal_us",
		Cols:  []string{"nab", "ab", "factor"},
		Notes: []string{
			"The default model charges 10 us per delivered signal",
			"(2003-era SIGIO); the factor degrades gracefully as signals",
			"get more expensive.",
		},
	}
	specs := model.PaperCluster(size)
	scosts := []time.Duration{2, 5, 10, 20, 40}
	xs := make([]float64, len(scosts))
	for i := range scosts {
		scosts[i] *= time.Microsecond
		xs[i] = us(scosts[i])
	}
	return pairGrid(t, "sigcost", [2]string{"nab", "ab"}, xs, func(xi, j int) Config {
		costs := model.DefaultCosts()
		costs.SignalOvh = scosts[xi]
		costs.SignalIgnored = scosts[xi] / 2
		return Config{Specs: specs, Count: count, Mode: cpuModes[j],
			MaxSkew: skew, Iters: o.Iters, Seed: o.Seed, Pool: o.Pool, Fault: o.Fault, Topo: o.Topo, Costs: &costs}
	}, o)
}

// AblationHeterogeneity isolates how much of the no-skew gap comes from
// the hardware mix: the paper's interlaced cluster versus an idealized
// homogeneous one of equal size.
func AblationHeterogeneity(size, count int, o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		Title: "Ablation — heterogeneity's contribution to natural skew",
		XName: "row",
		Cols:  []string{"nab", "ab", "factor"},
		Notes: []string{
			"Row 0: the paper's interlaced heterogeneous mix.",
			"Row 1: homogeneous 1 GHz nodes. No artificial skew in either.",
		},
	}
	clusters := [][]model.NodeSpec{model.PaperCluster(size), model.Homogeneous1G(size)}
	return pairGrid(t, "hetero", [2]string{"nab", "ab"}, []float64{0, 1}, func(xi, j int) Config {
		return Config{Specs: clusters[xi], Count: count, Mode: cpuModes[j], Iters: o.Iters, Seed: o.Seed, Pool: o.Pool, Fault: o.Fault, Topo: o.Topo}
	}, o)
}

// AblationRendezvousAB evaluates the §V-B extension: reductions beyond
// the eager limit, comparing the paper's fallback (size → default
// blocking path) against rendezvous-mode bypass, under skew.
func AblationRendezvousAB(size int, skew sim.Time, o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		Title: "Extension — rendezvous-mode bypass vs. §V-B fallback (large messages)",
		XName: "elements",
		Cols:  []string{"fallback", "rendezvous_ab", "factor"},
		Notes: []string{
			"The paper falls back to the blocking reduction beyond the",
			"eager limit; the extension streams large children with a",
			"signal-driven handshake instead.",
		},
	}
	specs := model.PaperCluster(size)
	counts := []int{4096, 8192, 16384} // 32, 64, 128 KiB
	return pairGrid(t, "rendezvous", [2]string{"fallback", "rendezvous"}, floats(counts), func(xi, j int) Config {
		return Config{Specs: specs, Count: counts[xi], Mode: AppBypass,
			MaxSkew: skew, Iters: o.Iters, Seed: o.Seed, Pool: o.Pool, Fault: o.Fault, Topo: o.Topo, RendezvousAB: j == 1}
	}, o)
}

// AblationNICReduce compares host-side reductions with the NIC-based
// extension (§VII future work): the NIC frees the host entirely but pays
// slow LANai arithmetic, so it wins for small messages under skew and
// loses as elements grow.
func AblationNICReduce(size int, skew sim.Time, o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		Title: "Extension — NIC-based reduction vs. host reductions",
		XName: "elements",
		Cols:  []string{"nab_cpu", "ab_cpu", "nic_cpu", "nic_factor_vs_nab"},
		Notes: []string{
			"Refs [9-11]: NIC-based reduction trades host cycles for slow",
			"NIC arithmetic (the LANai has no FPU).",
		},
	}
	specs := model.PaperCluster(size)
	counts := []int{4, 32, 128}
	modes := []Mode{NonAppBypass, AppBypass, NICBased}
	var jobs []sweep.Job[[]float64]
	for _, count := range counts {
		for _, mode := range modes {
			jobs = append(jobs, cpuJob(fmt.Sprintf("nicreduce/x=%d/%s", count, mode),
				Config{Specs: specs, Count: count, Mode: mode, MaxSkew: skew, Iters: o.Iters, Seed: o.Seed, Pool: o.Pool, Fault: o.Fault, Topo: o.Topo}))
		}
	}
	return runGrid(t, floats(counts), jobs, func(cells [][]float64) []float64 {
		nab, ab, nic := cells[0][0], cells[1][0], cells[2][0]
		return []float64{nab, ab, nic, nab / nic}
	}, o.Workers)
}

// relCPUJob is cpuJob extended with fault/reliability counters:
// [avg CPU µs, retransmits, injector drops, ring overflows].
func relCPUJob(name string, cfg Config) sweep.Job[[]float64] {
	return sweep.Job[[]float64]{Name: name, Seed: cfg.Seed, Run: func() ([]float64, uint64) {
		r := CPUUtil(cfg)
		return []float64{us(r.AvgCPU), float64(r.Rel.Retransmits),
			float64(r.Rel.Dropped), float64(r.Rel.Overflow)}, r.Events
	}}
}

// relLatJob is latJob extended the same way.
func relLatJob(name string, cfg Config) sweep.Job[[]float64] {
	return sweep.Job[[]float64]{Name: name, Seed: cfg.Seed, Run: func() ([]float64, uint64) {
		r := Latency(cfg)
		return []float64{us(r.AvgLatency), float64(r.Rel.Retransmits),
			float64(r.Rel.Dropped), float64(r.Rel.Overflow)}, r.Events
	}}
}

// PaperLossRates is the loss sweep's x axis: 0 (reliability off — the
// paper's perfect fabric) through the 0.1–5% frame-loss range.
func PaperLossRates() []float64 { return []float64{0, 0.001, 0.005, 0.01, 0.02, 0.05} }

// LossSweep answers a question the paper's reliable testbed could not
// ask: does application-bypass reduction keep its CPU and latency
// advantage over the binomial reduction when the fabric drops frames
// and GM must retransmit? Per loss rate it runs the Fig. 6 CPU workload
// (32 nodes, 4 elements, max skew 1000 µs) and the Fig. 9 latency
// workload (1 element, no skew) for both implementations. faultSeed
// feeds the dedicated fault stream; the same seed replays the same
// drop pattern.
func LossSweep(rates []float64, faultSeed int64, o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		Title: "Loss sweep — ab vs. nab reduction on a lossy fabric",
		XName: "loss_pct",
		Cols:  []string{"nab_cpu", "ab_cpu", "factor", "nab_lat", "ab_lat", "retx", "drops", "overflow"},
		Notes: []string{
			"CPU columns: Fig. 6 workload (32 nodes, 4 elements, max skew",
			"1000 us). Latency columns: Fig. 9 workload (1 element, no",
			"skew). retx/drops/overflow sum GM retransmissions, injector",
			"drops and retransmit-ring overflows across the row's 4 runs.",
			"Row 0 is the perfect fabric (reliability machinery off).",
		},
	}
	specs := model.PaperCluster32()
	var jobs []sweep.Job[[]float64]
	xs := make([]float64, len(rates))
	for xi, rate := range rates {
		xs[xi] = rate * 100
		fc := fault.Config{Seed: faultSeed, Rule: fault.Rule{Drop: rate}}
		for _, mode := range cpuModes {
			jobs = append(jobs, relCPUJob(fmt.Sprintf("loss/x=%v/cpu/%s", rate, mode),
				Config{Specs: specs, Count: 4, Mode: mode, MaxSkew: 1000 * time.Microsecond,
					Iters: o.Iters, Seed: o.Seed, Pool: o.Pool, Fault: fc, Topo: o.Topo}))
		}
		for _, mode := range cpuModes {
			jobs = append(jobs, relLatJob(fmt.Sprintf("loss/x=%v/lat/%s", rate, mode),
				Config{Specs: specs, Count: 1, Mode: mode, Iters: o.Iters, Seed: o.Seed, Pool: o.Pool, Fault: fc, Topo: o.Topo}))
		}
	}
	return runGrid(t, xs, jobs, func(cells [][]float64) []float64 {
		nabCPU, abCPU := cells[0][0], cells[1][0]
		nabLat, abLat := cells[2][0], cells[3][0]
		var retx, drops, overflow float64
		for _, c := range cells {
			retx += c[1]
			drops += c[2]
			overflow += c[3]
		}
		return []float64{nabCPU, abCPU, nabCPU / abCPU, nabLat, abLat, retx, drops, overflow}
	}, o.Workers)
}
