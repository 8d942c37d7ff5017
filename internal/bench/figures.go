package bench

import (
	"time"

	"abred/internal/coll"
	"abred/internal/core"
	"abred/internal/fault"
	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/sweep"
)

// This file regenerates every figure of the paper's evaluation (§VI).
// Each runner declares its parameter grid — sizes × counts × skews ×
// cluster specs — as a list of independent sweep jobs (one simulation
// per cell) and hands it to the sweep engine, which executes the cells
// on a worker pool and reassembles rows in declaration order. Tables are
// therefore byte-identical for any worker count. Iters trades precision
// for run time; the paper used 10,000, which also works here but is not
// needed for stable virtual-time averages.
//
// Every runner takes the run-wide Config — Iters, Seed, Fault, Pool,
// Topo and LPs; its other fields are left zero — and a worker count.
// Each cell copies that base and sets only what the cell varies, so a
// run-wide setting reaches every cell of every figure.

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

// cell is what one simulation of a grid reports to its table: the
// cell's metric in µs (average CPU or average latency) and the counters
// a table may show beside it.
type cell struct {
	us        float64
	signals   uint64
	rel       RelTotals
	linkWaits uint64
	linkWait  sim.Time
}

// cpuJob wraps one CPU-utilization simulation as a pure sweep job.
func cpuJob(cfg Config) func() cell {
	return func() cell {
		r := CPUUtil(cfg)
		return cell{us: us(r.AvgCPU), signals: r.Signals, rel: r.Rel,
			linkWaits: r.LinkWaits, linkWait: r.LinkWait}
	}
}

// latJob wraps one latency simulation as a pure sweep job.
func latJob(cfg Config) func() cell {
	return func() cell {
		r := Latency(cfg)
		return cell{us: us(r.AvgLatency), rel: r.Rel}
	}
}

// runGrid executes a figure's cells (row-major: len(jobs)/len(xs) cells
// per x) through the sweep engine and assembles each row with mk.
func runGrid(t *Table, xs []float64, jobs []func() cell, mk func(cells []cell) []float64, workers int) *Table {
	per := len(jobs) / len(xs)
	vals := sweep.Run(jobs, workers)
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
// vary sets what x changes on a cell that already has its mode and
// count.
func cpuGrid(t *Table, xs []float64, counts []int, base Config, workers int, vary func(xi int, c *Config)) *Table {
	var jobs []func() cell
	for xi := range xs {
		for _, mode := range cpuModes {
			for _, count := range counts {
				c := base
				c.Count, c.Mode = count, mode
				vary(xi, &c)
				jobs = append(jobs, cpuJob(c))
			}
		}
	}
	return runGrid(t, xs, jobs, func(cells []cell) []float64 {
		row := make([]float64, 0, 3*len(counts))
		for _, c := range cells {
			row = append(row, c.us)
		}
		return factorCols(row, len(counts))
	}, workers)
}

// pairGrid declares a two-implementation comparison: per x, cells j = 0
// and 1 (vary sets both apart), rendering each row as [a, b, a/b].
func pairGrid(t *Table, xs []float64, base Config, workers int, vary func(xi, j int, c *Config)) *Table {
	var jobs []func() cell
	for xi := range xs {
		for j := 0; j < 2; j++ {
			c := base
			vary(xi, j, &c)
			jobs = append(jobs, cpuJob(c))
		}
	}
	return runGrid(t, xs, jobs, func(cells []cell) []float64 {
		a, b := cells[0].us, cells[1].us
		return []float64{a, b, a / b}
	}, workers)
}

// latGrid declares a latency comparison: per x a nab and an ab run,
// rendered as [nab, ab, ab-nab].
func latGrid(t *Table, xs []float64, base Config, workers int, vary func(xi int, c *Config)) *Table {
	var jobs []func() cell
	for xi := range xs {
		for _, mode := range cpuModes {
			c := base
			c.Mode = mode
			vary(xi, &c)
			jobs = append(jobs, latJob(c))
		}
	}
	return runGrid(t, xs, jobs, func(cells []cell) []float64 {
		nab, ab := cells[0].us, cells[1].us
		return []float64{nab, ab, ab - nab}
	}, workers)
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
func Fig6(base Config, workers int) *Table {
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
	return cpuGrid(t, xs, counts, base, workers, func(xi int, c *Config) {
		c.Specs, c.MaxSkew = specs, skews[xi]
	})
}

// Fig7 regenerates Fig. 7: CPU utilization and factor of improvement
// versus system size at maximum skew 1000 µs.
func Fig7(base Config, workers int) *Table {
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
	return cpuGrid(t, floats(sizes), counts, base, workers, func(xi int, c *Config) {
		c.Specs, c.MaxSkew = model.PaperCluster(sizes[xi]), 1000*time.Microsecond
	})
}

// Fig8 regenerates Fig. 8: CPU utilization and factor of improvement
// versus system size without artificial skew.
func Fig8(base Config, workers int) *Table {
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
	return cpuGrid(t, floats(sizes), counts, base, workers, func(xi int, c *Config) {
		c.Specs = model.PaperCluster(sizes[xi])
	})
}

// Fig9 regenerates Fig. 9: reduction latency versus system size without
// skew for single-element messages, on the heterogeneous cluster (a) and
// the homogeneous 700 MHz cluster (b).
func Fig9(base Config, workers int) (hetero, homog *Table) {
	mk := func(title string, sizes []int, specsFor func(int) []model.NodeSpec) *Table {
		t := &Table{
			Title: title,
			XName: "nodes",
			Cols:  []string{"nab", "ab", "ab-nab"},
			Notes: []string{
				"Paper: ab and nab nearly identical up to 4 nodes, then ab",
				"pays a signal overhead that stabilizes (Fig. 10).",
			},
		}
		return latGrid(t, floats(sizes), base, workers, func(xi int, c *Config) {
			c.Specs, c.Count = specsFor(sizes[xi]), 1
		})
	}
	hetero = mk("Fig. 9a — reduce latency vs. nodes (heterogeneous, 1 element)", PaperSizes(), model.PaperCluster)
	homog = mk("Fig. 9b — reduce latency vs. nodes (homogeneous 700 MHz, 1 element)", []int{2, 4, 8, 16}, model.Homogeneous700)
	return hetero, homog
}

// Fig10 regenerates Fig. 10: reduction latency versus message size for
// 32 nodes without skew.
func Fig10(base Config, workers int) *Table {
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
	return latGrid(t, floats(counts), base, workers, func(xi int, c *Config) {
		c.Specs, c.Count = specs, counts[xi]
	})
}

// ScaleProjection extends Fig. 7/8 beyond the paper's 32 nodes — its
// stated future work ("evaluate the performance of application-bypass
// operations on large-scale clusters") — by replicating the interlaced
// node mix up to the requested sizes.
func ScaleProjection(sizes []int, skew sim.Time, count int, base Config, workers int) *Table {
	t := &Table{
		Title: "Scalability projection — CPU utilization vs. nodes",
		XName: "nodes",
		Cols:  []string{"nab", "ab", "factor"},
		Notes: []string{
			"Extension of Figs. 7/8 past the paper's 32-node testbed.",
		},
	}
	return pairGrid(t, floats(sizes), base, workers, func(xi, j int, c *Config) {
		c.Specs, c.Count, c.Mode, c.MaxSkew = model.PaperCluster(sizes[xi]), count, cpuModes[j], skew
	})
}

// AblationDelay quantifies the §IV-E exit-delay heuristic: CPU
// utilization and signal counts with and without lingering.
func AblationDelay(size, count int, skew sim.Time, base Config, workers int) *Table {
	t := &Table{
		Title: "Ablation — §IV-E exit delay (ab mode)",
		XName: "delay_us",
		Cols:  []string{"avg_cpu", "signals"},
		Notes: []string{
			"Delay 0 is the paper's default. Longer delays catch straggler",
			"children inside MPI_Reduce, trading latency for fewer signals.",
		},
	}
	base.Specs, base.Count, base.Mode, base.MaxSkew = model.PaperCluster(size), count, AppBypass, skew
	delays := []sim.Time{0, 5 * time.Microsecond, 15 * time.Microsecond, 30 * time.Microsecond, 60 * time.Microsecond}
	var jobs []func() cell
	xs := make([]float64, len(delays))
	for i, d := range delays {
		xs[i] = us(d)
		c := base
		if d > 0 {
			c.Delay = core.FixedDelay{D: d}
		}
		jobs = append(jobs, cpuJob(c))
	}
	return runGrid(t, xs, jobs, func(cells []cell) []float64 {
		return []float64{cells[0].us, float64(cells[0].signals)}
	}, workers)
}

// AblationSignalCost sweeps the modeled cost of one NIC-raised signal.
// Every crossover in Figs. 8–10 depends on this constant (the paper
// calls interrupts "a substantial performance penalty" without
// quantifying); the sweep shows how robust the headline factor is.
func AblationSignalCost(size, count int, skew sim.Time, base Config, workers int) *Table {
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
	base.Specs, base.Count, base.MaxSkew = model.PaperCluster(size), count, skew
	scosts := []time.Duration{2, 5, 10, 20, 40}
	xs := make([]float64, len(scosts))
	for i := range scosts {
		scosts[i] *= time.Microsecond
		xs[i] = us(scosts[i])
	}
	return pairGrid(t, xs, base, workers, func(xi, j int, c *Config) {
		costs := model.DefaultCosts()
		costs.SignalOvh = scosts[xi]
		costs.SignalIgnored = scosts[xi] / 2
		c.Mode, c.Costs = cpuModes[j], &costs
	})
}

// AblationHeterogeneity isolates how much of the no-skew gap comes from
// the hardware mix: the paper's interlaced cluster versus an idealized
// homogeneous one of equal size.
func AblationHeterogeneity(size, count int, base Config, workers int) *Table {
	t := &Table{
		Title: "Ablation — heterogeneity's contribution to natural skew",
		XName: "row",
		Cols:  []string{"nab", "ab", "factor"},
		Notes: []string{
			"Row 0: the paper's interlaced heterogeneous mix.",
			"Row 1: homogeneous 1 GHz nodes. No artificial skew in either.",
		},
	}
	base.Count = count
	clusters := [][]model.NodeSpec{model.PaperCluster(size), model.Homogeneous1G(size)}
	return pairGrid(t, []float64{0, 1}, base, workers, func(xi, j int, c *Config) {
		c.Specs, c.Mode = clusters[xi], cpuModes[j]
	})
}

// AblationRendezvousAB evaluates the §V-B extension: reductions beyond
// the eager limit, comparing the paper's fallback (size → default
// blocking path) against rendezvous-mode bypass, under skew.
func AblationRendezvousAB(size int, skew sim.Time, base Config, workers int) *Table {
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
	base.Specs, base.Mode, base.MaxSkew = model.PaperCluster(size), AppBypass, skew
	counts := []int{4096, 8192, 16384} // 32, 64, 128 KiB
	return pairGrid(t, floats(counts), base, workers, func(xi, j int, c *Config) {
		c.Count, c.RendezvousAB = counts[xi], j == 1
	})
}

// AblationNICReduce compares host-side reductions with the NIC-based
// extension (§VII future work): the NIC frees the host entirely but pays
// slow LANai arithmetic, so it wins for small messages under skew and
// loses as elements grow.
func AblationNICReduce(size int, skew sim.Time, base Config, workers int) *Table {
	t := &Table{
		Title: "Extension — NIC-based reduction vs. host reductions",
		XName: "elements",
		Cols:  []string{"nab_cpu", "ab_cpu", "nic_cpu", "nic_factor_vs_nab"},
		Notes: []string{
			"Refs [9-11]: NIC-based reduction trades host cycles for slow",
			"NIC arithmetic (the LANai has no FPU).",
		},
	}
	base.Specs, base.MaxSkew = model.PaperCluster(size), skew
	counts := []int{4, 32, 128}
	var jobs []func() cell
	for _, count := range counts {
		for _, mode := range []Mode{NonAppBypass, AppBypass, coll.AlgoNIC} {
			c := base
			c.Count, c.Mode = count, mode
			jobs = append(jobs, cpuJob(c))
		}
	}
	return runGrid(t, floats(counts), jobs, func(cells []cell) []float64 {
		nab, ab, nic := cells[0].us, cells[1].us, cells[2].us
		return []float64{nab, ab, nic, nab / nic}
	}, workers)
}

// PaperLossRates is the loss sweep's x axis: 0 (reliability off — the
// paper's perfect fabric) through the 0.1–5% frame-loss range.
func PaperLossRates() []float64 { return []float64{0, 0.001, 0.005, 0.01, 0.02, 0.05} }

// LossSweep answers a question the paper's reliable testbed could not
// ask: does application-bypass reduction keep its CPU and latency
// advantage over the binomial reduction when the fabric drops frames
// and GM must retransmit? Per loss rate it runs the Fig. 6 CPU workload
// (32 nodes, 4 elements, max skew 1000 µs) and the Fig. 9 latency
// workload (1 element, no skew) for both implementations. The sweep
// sets each row's drop rule; base.Fault.Seed feeds the dedicated fault
// stream, and the same seed replays the same drop pattern.
func LossSweep(rates []float64, base Config, workers int) *Table {
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
	base.Specs = model.PaperCluster32()
	var jobs []func() cell
	xs := make([]float64, len(rates))
	for xi, rate := range rates {
		xs[xi] = rate * 100
		row := base
		row.Fault.Rule = fault.Rule{Drop: rate}
		for _, mode := range cpuModes {
			c := row
			c.Count, c.Mode, c.MaxSkew = 4, mode, 1000*time.Microsecond
			jobs = append(jobs, cpuJob(c))
		}
		for _, mode := range cpuModes {
			c := row
			c.Count, c.Mode = 1, mode
			jobs = append(jobs, latJob(c))
		}
	}
	return runGrid(t, xs, jobs, func(cells []cell) []float64 {
		nabCPU, abCPU := cells[0].us, cells[1].us
		nabLat, abLat := cells[2].us, cells[3].us
		var rel RelTotals
		for _, c := range cells {
			rel.Retransmits += c.rel.Retransmits
			rel.Dropped += c.rel.Dropped
			rel.Overflow += c.rel.Overflow
		}
		return []float64{nabCPU, abCPU, nabCPU / abCPU, nabLat, abLat,
			float64(rel.Retransmits), float64(rel.Dropped), float64(rel.Overflow)}
	}, workers)
}
