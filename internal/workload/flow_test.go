package workload

import (
	"testing"
	"time"

	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/model"
	"abred/internal/skew"
	"abred/internal/topo"
)

// relClose reports whether a and b agree within frac.
func relClose(a, b int64, frac float64) bool {
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	m := float64(a)
	if float64(b) > m {
		m = float64(b)
	}
	return m == 0 || d/m <= frac
}

// TestFlowWorkloadCrossValidation pins the flow engine against the
// packet engine on the application workload: job time within 1%, call
// time within 5% (call times are microseconds, so the absolute slack is
// tiny), identical root results.
func TestFlowWorkloadCrossValidation(t *testing.T) {
	for _, halo := range []bool{false, true} {
		for _, style := range []Style{coll.AlgoBinomial, StyleBypass} {
			cfg := Config{
				Specs:       model.Uniform(128),
				Iters:       10,
				Compute:     200 * time.Microsecond,
				Imbalance:   skew.Uniform{Max: 100 * time.Microsecond},
				Halo:        halo,
				Count:       2,
				RedsPerIter: 2,
				Seed:        11,
				Topo:        topo.Spec{Kind: topo.FatTree, K: 16},
			}
			p := Run(cfg, style)
			cfg.Engine = cluster.EngineFlow
			f := Run(cfg, style)
			if !relClose(int64(p.JobTime), int64(f.JobTime), 0.01) {
				t.Errorf("style=%v halo=%v: job time diverged: packet %v, flow %v", style, halo, p.JobTime, f.JobTime)
			}
			if !relClose(int64(p.ReduceCalls.Mean), int64(f.ReduceCalls.Mean), 0.05) {
				t.Errorf("style=%v halo=%v: call time diverged: packet %v, flow %v",
					style, halo, p.ReduceCalls.Mean, f.ReduceCalls.Mean)
			}
			if len(p.RootResults) != len(f.RootResults) {
				t.Fatalf("style=%v halo=%v: %d packet results, %d flow", style, halo, len(p.RootResults), len(f.RootResults))
			}
			for i := range p.RootResults {
				if p.RootResults[i] != f.RootResults[i] {
					t.Fatalf("style=%v halo=%v: result %d: packet %v, flow %v",
						style, halo, i, p.RootResults[i], f.RootResults[i])
				}
			}
			t.Logf("style=%v halo=%v: packet job=%v calls=%v sig=%d ev=%d | flow job=%v calls=%v sig=%d ev=%d",
				style, halo, p.JobTime, p.ReduceCalls.Mean, p.Signals, p.Events,
				f.JobTime, f.ReduceCalls.Mean, f.Signals, f.Events)
		}
	}
}
