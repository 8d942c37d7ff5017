package bench

import (
	"fmt"
	"time"

	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/topo"
)

// TopoSweep asks the question the tentpole exists for: does the paper's
// application-bypass advantage survive once the single crossbar is
// replaced by a routed multi-stage fabric where frames pay per-hop
// latency and queue at shared uplinks? Per node count it runs the CPU
// workload five ways — both implementations on the ideal crossbar, both
// on the routed topology, and bypass again with the topology-aware
// reduction tree — and reports the contention the routed runs absorbed.
// base.Topo is the routed fabric; the crossbar cells replace it.
func TopoSweep(sizes []int, skew sim.Time, count int, base Config, workers int) *Table {
	ft := base.Topo
	t := &Table{
		Title: fmt.Sprintf("Topology sweep — crossbar vs. %s", ft),
		XName: "nodes",
		Cols: []string{"xbar_nab", "xbar_ab", "xbar_factor",
			"ft_nab", "ft_ab", "ft_factor", "ft_ab_hier", "hier_speedup",
			"ft_waits", "ft_wait_ms"},
		Notes: []string{
			"CPU-utilization workload under skew, crossbar vs. a routed",
			"multi-stage fabric (per-hop latency + uplink queueing).",
			"ft_ab_hier is bypass with the topology-aware tree; the waits",
			"columns count uplink queueing across the row's ft_ab run.",
			"When hosts-per-leaf is a power of two and sizes align, the",
			"binomial tree is already leaf-local and hier_speedup is 1.",
		},
	}
	cells := []struct {
		mode Mode
		topo topo.Spec
		hier bool
	}{
		{NonAppBypass, topo.Spec{}, false},
		{AppBypass, topo.Spec{}, false},
		{NonAppBypass, ft, false},
		{AppBypass, ft, false},
		{AppBypass, ft, true},
	}
	base.Count, base.MaxSkew = count, skew
	var jobs []func() cell
	for _, size := range sizes {
		specs := model.PaperCluster(size)
		for _, tc := range cells {
			c := base
			c.Specs, c.Mode, c.Topo, c.TopoAware = specs, tc.mode, tc.topo, tc.hier
			jobs = append(jobs, cpuJob(c))
		}
	}
	return runGrid(t, floats(sizes), jobs, func(cells []cell) []float64 {
		xbNab, xbAb := cells[0].us, cells[1].us
		ftNab, ftAb, ftHier := cells[2].us, cells[3].us, cells[4].us
		return []float64{xbNab, xbAb, xbNab / xbAb,
			ftNab, ftAb, ftNab / ftAb, ftHier, ftAb / ftHier,
			float64(cells[3].linkWaits), float64(cells[3].linkWait) / float64(time.Millisecond)}
	}, workers)
}
