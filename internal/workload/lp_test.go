package workload

import (
	"testing"

	"abred/internal/coll"
	"abred/internal/model"
	"abred/internal/skew"
	"abred/internal/topo"
)

// TestPartitionedWorkloadCorrect: the application on a 4-LP partitioned
// fat tree must compute exactly the same reductions as anywhere else —
// every instance equal to the closed-form sum — and repeat runs must be
// deterministic, including signal and event counts.
func TestPartitionedWorkloadCorrect(t *testing.T) {
	const size = 64
	cfg := Config{
		Specs:       model.PaperCluster(size),
		Iters:       12,
		Compute:     150 * us,
		Imbalance:   skew.Uniform{Max: 300 * us},
		Halo:        true,
		Count:       2,
		RedsPerIter: 2,
		Seed:        7,
		Topo:        topo.Spec{Kind: topo.FatTree, K: 8},
		LPs:         4,
	}
	r := Run(cfg, StyleBypass)
	if len(r.RootResults) != cfg.Iters*cfg.RedsPerIter {
		t.Fatalf("produced %d results, want %d", len(r.RootResults), cfg.Iters*cfg.RedsPerIter)
	}
	for i, got := range r.RootResults {
		it, rd := i/cfg.RedsPerIter, i%cfg.RedsPerIter
		if want := coll.ExpectedRootSum(size, it, rd); got != want {
			t.Errorf("iteration %d reduction %d: %v, want %v", it, rd, got, want)
		}
	}

	again := Run(cfg, StyleBypass)
	if again.JobTime != r.JobTime || again.Signals != r.Signals ||
		again.Events != r.Events || again.ReduceCalls != r.ReduceCalls {
		t.Errorf("partitioned reruns diverged:\nfirst: %+v\nagain: %+v", r, again)
	}

	// The monolithic run of the same config computes the same values
	// (virtual timings may differ; the arithmetic must not).
	mono := cfg
	mono.LPs = 1
	m := Run(mono, StyleBypass)
	if len(m.RootResults) != len(r.RootResults) {
		t.Fatalf("monolithic produced %d results, partitioned %d", len(m.RootResults), len(r.RootResults))
	}
	for i := range m.RootResults {
		if m.RootResults[i] != r.RootResults[i] {
			t.Errorf("result %d: monolithic %v, partitioned %v", i, m.RootResults[i], r.RootResults[i])
		}
	}
}
