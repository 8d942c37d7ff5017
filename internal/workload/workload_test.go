package workload

import (
	"testing"
	"time"

	"abred/internal/coll"
	"abred/internal/model"
	"abred/internal/skew"
)

const us = time.Microsecond

func baseCfg() Config {
	return Config{
		Specs:     model.PaperCluster(16),
		Iters:     20,
		Compute:   150 * us,
		Imbalance: skew.Uniform{Max: 300 * us},
		Halo:      true,
		Count:     2,
		Seed:      7,
	}
}

// TestAllStylesComputeTheSameReductions: every implementation of the
// application must produce the identical reduction results at rank 0.
func TestAllStylesComputeTheSameReductions(t *testing.T) {
	cfg := baseCfg()
	results := CompareParallel(cfg, 1, StyleDefault, StyleBypass, StyleSplitPhase, StyleNIC)
	want := results[0].RootResults
	if len(want) != cfg.Iters {
		t.Fatalf("default produced %d results, want %d", len(want), cfg.Iters)
	}
	for it := range want {
		if want[it] != coll.ExpectedRootSum(16, it, 0) {
			t.Fatalf("iteration %d: default result %v, want %v", it, want[it], coll.ExpectedRootSum(16, it, 0))
		}
	}
	for _, r := range results[1:] {
		if len(r.RootResults) != len(want) {
			t.Fatalf("%v produced %d results, want %d", r.Style, len(r.RootResults), len(want))
		}
		for it := range want {
			if r.RootResults[it] != want[it] {
				t.Errorf("%v iteration %d: %v, want %v", r.Style, it, r.RootResults[it], want[it])
			}
		}
	}
}

// TestBypassCutsInCallTime: under imbalance, the AB styles must spend
// far less time inside reduction calls than the default.
func TestBypassCutsInCallTime(t *testing.T) {
	cfg := baseCfg()
	def := Run(cfg, StyleDefault)
	ab := Run(cfg, StyleBypass)
	split := Run(cfg, StyleSplitPhase)
	// The halo exchange partially re-synchronizes neighbours before
	// each reduction, so the gap is narrower than in the pure
	// microbenchmark; still, AB must win clearly.
	if float64(ab.ReduceCalls.Mean)*1.5 > float64(def.ReduceCalls.Mean) {
		t.Errorf("AB in-call time %v not clearly below default %v", ab.ReduceCalls.Mean, def.ReduceCalls.Mean)
	}
	if split.ReduceCalls.Mean > ab.ReduceCalls.Mean {
		t.Errorf("split-phase in-call time %v above blocking AB %v", split.ReduceCalls.Mean, ab.ReduceCalls.Mean)
	}
	if ab.Signals == 0 {
		t.Error("AB run handled no signals under imbalance")
	}
}

// TestNICStyleFreesHost: NIC-based reduction's in-call time is minimal
// (non-root ranks only deposit).
func TestNICStyleFreesHost(t *testing.T) {
	cfg := baseCfg()
	def := Run(cfg, StyleDefault)
	nic := Run(cfg, StyleNIC)
	if nic.ReduceCalls.Mean*2 > def.ReduceCalls.Mean {
		t.Errorf("NIC in-call time %v not clearly below default %v", nic.ReduceCalls.Mean, def.ReduceCalls.Mean)
	}
}

func TestDeterministicWorkload(t *testing.T) {
	cfg := baseCfg()
	a := Run(cfg, StyleBypass)
	b := Run(cfg, StyleBypass)
	if a.JobTime != b.JobTime || a.Signals != b.Signals {
		t.Errorf("workload not deterministic: %v/%d vs %v/%d", a.JobTime, a.Signals, b.JobTime, b.Signals)
	}
}

func TestWindowedSplitPhaseOrdering(t *testing.T) {
	cfg := baseCfg()
	cfg.RedsPerIter = 3
	cfg.Window = 4
	r := Run(cfg, StyleSplitPhase)
	if len(r.RootResults) != cfg.Iters*cfg.RedsPerIter {
		t.Fatalf("got %d results, want %d", len(r.RootResults), cfg.Iters*cfg.RedsPerIter)
	}
	i := 0
	for it := 0; it < cfg.Iters; it++ {
		for rd := 0; rd < cfg.RedsPerIter; rd++ {
			if r.RootResults[i] != coll.ExpectedRootSum(16, it, rd) {
				t.Fatalf("result %d = %v, want %v", i, r.RootResults[i], coll.ExpectedRootSum(16, it, rd))
			}
			i++
		}
	}
}

func TestStyleStrings(t *testing.T) {
	names := map[Style]string{
		StyleDefault: "default", StyleBypass: "app-bypass",
		StyleSplitPhase: "split-phase", StyleNIC: "nic-based",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestHeavyTailImbalance(t *testing.T) {
	cfg := baseCfg()
	cfg.Imbalance = skew.Pareto{Min: 20 * us, Max: 2000 * us, Alpha: 1.3}
	def := Run(cfg, StyleDefault)
	ab := Run(cfg, StyleBypass)
	if ab.ReduceCalls.Mean >= def.ReduceCalls.Mean {
		t.Errorf("AB should win under heavy-tailed imbalance: %v vs %v", ab.ReduceCalls.Mean, def.ReduceCalls.Mean)
	}
	for it, v := range def.RootResults {
		if v != coll.ExpectedRootSum(16, it, 0) {
			t.Fatalf("heavy-tail run corrupted results at %d", it)
		}
	}
}

func TestStragglerImbalance(t *testing.T) {
	cfg := baseCfg()
	cfg.Imbalance = skew.Straggler{P: 16, Delay: 800 * us}
	ab := Run(cfg, StyleBypass)
	if len(ab.RootResults) != cfg.Iters {
		t.Fatalf("straggler run lost results")
	}
}
