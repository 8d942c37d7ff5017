package bench

import (
	"fmt"
	"testing"
	"time"

	"abred/internal/cluster"
	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/topo"
)

// Committed flow/packet fidelity band (DESIGN §9): over the pinned
// envelope below, the flow engine's run time agrees with the packet
// engine within 1% and its CPU-utilization metric within 2%. Tighten
// only with evidence across the whole grid; loosening is a fidelity
// regression and needs a DESIGN amendment.
const (
	elapsedBand = 0.01
	cpuBand     = 0.02
)

// crossCase is one point of the cross-validation envelope.
type crossCase struct {
	name string
	size int
	mode Mode
	skew sim.Time
	topo topo.Spec
	ta   bool
}

func crossCases(short bool) []crossCase {
	sizes := []int{32, 256, 2048}
	if !short {
		sizes = append(sizes, 16384)
	}
	ft := topo.Spec{Kind: topo.FatTree, K: 16}
	var cases []crossCase
	for _, n := range sizes {
		cases = append(cases,
			crossCase{fmt.Sprintf("nab/clean/%d", n), n, NonAppBypass, 0, topo.Spec{}, false},
			crossCase{fmt.Sprintf("nab/skew/%d", n), n, NonAppBypass, 500 * time.Microsecond, topo.Spec{}, false},
			crossCase{fmt.Sprintf("ab/clean/%d", n), n, AppBypass, 0, topo.Spec{}, false},
			crossCase{fmt.Sprintf("ab/skew/%d", n), n, AppBypass, 500 * time.Microsecond, topo.Spec{}, false},
			crossCase{fmt.Sprintf("ab/fattree/%d", n), n, AppBypass, 500 * time.Microsecond, ft, true},
		)
	}
	return cases
}

func (cc crossCase) config() Config {
	return Config{
		Specs:     model.Uniform(cc.size),
		Mode:      cc.mode,
		MaxSkew:   cc.skew,
		Iters:     3,
		Seed:      20030701,
		Topo:      cc.topo,
		TopoAware: cc.ta,
	}
}

func relDiff(a, b sim.Time) float64 {
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	m := float64(a)
	if float64(b) > m {
		m = float64(b)
	}
	if m == 0 {
		return 0
	}
	return d / m
}

// TestFlowCrossValidation pins the hybrid-fidelity contract: the flow
// engine, run through the same benchmark under the same seed, lands
// within the committed band of the packet engine across sizes, skews,
// both reduction modes, and a routed fat-tree.
func TestFlowCrossValidation(t *testing.T) {
	for _, cc := range crossCases(testing.Short()) {
		cc := cc
		t.Run(cc.name, func(t *testing.T) {
			cfg := cc.config()
			p := CPUUtil(cfg)
			cfg.Engine = cluster.EngineFlow
			f := CPUUtil(cfg)
			if d := relDiff(p.Elapsed, f.Elapsed); d > elapsedBand {
				t.Errorf("elapsed diverged %.2f%% (band %.0f%%): packet %v, flow %v",
					d*100, elapsedBand*100, p.Elapsed, f.Elapsed)
			}
			if d := relDiff(p.AvgCPU, f.AvgCPU); d > cpuBand {
				t.Errorf("avg CPU diverged %.2f%% (band %.0f%%): packet %v, flow %v",
					d*100, cpuBand*100, p.AvgCPU, f.AvgCPU)
			}
			if f.Events >= p.Events && cc.size >= 256 {
				t.Errorf("flow engine executed %d events, packet %d: no simulation-cost win", f.Events, p.Events)
			}
			t.Logf("packet cpu=%v elapsed=%v sig=%d ev=%d | flow cpu=%v elapsed=%v sig=%d ev=%d",
				p.AvgCPU, p.Elapsed, p.Signals, p.Events, f.AvgCPU, f.Elapsed, f.Signals, f.Events)
		})
	}
}

// TestFlowDeterminism pins that a flow run is a pure function of its
// seed and mode regardless of how the cluster was obtained: one pooled
// cluster runs nab, then ab, then ab again, reusing its rank state
// across modes and runs, and each run must be byte-identical to a
// fresh build of the same mode.
func TestFlowDeterminism(t *testing.T) {
	base := Config{
		Specs:   model.Uniform(512),
		MaxSkew: 500 * time.Microsecond,
		Iters:   3,
		Seed:    7,
		Topo:    topo.Spec{Kind: topo.FatTree, K: 16},
		Engine:  cluster.EngineFlow,
	}
	fresh := map[Mode]CPUUtilResult{}
	for _, mode := range []Mode{NonAppBypass, AppBypass} {
		cfg := base
		cfg.Mode = mode
		fresh[mode] = CPUUtil(cfg)
	}

	pool := cluster.NewPool()
	defer pool.Drain()
	for i, mode := range []Mode{NonAppBypass, AppBypass, AppBypass} {
		cfg := base
		cfg.Mode, cfg.Pool = mode, pool
		got, want := CPUUtil(cfg), fresh[mode]
		name := fmt.Sprintf("pooled run %d (%v)", i+1, mode)
		if got.AvgCPU != want.AvgCPU || got.Elapsed != want.Elapsed || got.Signals != want.Signals || got.FCT != want.FCT {
			t.Errorf("%s diverged from fresh: cpu %v vs %v, elapsed %v vs %v, signals %d vs %d, fct %+v vs %+v",
				name, got.AvgCPU, want.AvgCPU, got.Elapsed, want.Elapsed, got.Signals, want.Signals, got.FCT, want.FCT)
		}
		for r := range want.PerNode {
			if got.PerNode[r] != want.PerNode[r] {
				t.Fatalf("%s diverged from fresh at rank %d: %v vs %v", name, r, got.PerNode[r], want.PerNode[r])
			}
		}
	}
}
