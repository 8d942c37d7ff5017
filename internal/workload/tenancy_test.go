package workload

import (
	"testing"
	"time"

	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/fault"
	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/sweep"
	"abred/internal/topo"
)

func tenancyBase(place Placement, lossy bool) TenancyConfig {
	cfg := TenancyConfig{
		Specs: model.Uniform(32),
		Topo:  topo.Spec{Kind: topo.FatTree, K: 8, Oversub: 4},
		Jobs:  6, Seed: 11, Style: StyleBypass, Place: place,
	}
	if lossy {
		cfg.Fault = fault.Config{Seed: 5, Rule: fault.Rule{Drop: 2e-3}}
	}
	return cfg
}

// TestTenancyDeterminism is the multi-job reproducibility matrix: for
// clean and lossy fabrics × random and greedy placement, a fresh
// build, a second fresh build, and two warm-pool reuses (the first Get
// builds, the second Resets) must produce identical fingerprints.
func TestTenancyDeterminism(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		for _, place := range []Placement{RandomPlacement{}, GreedyPlacement{}} {
			cfg := tenancyBase(place, lossy)
			fresh1 := Tenancy(cfg)
			fresh2 := Tenancy(cfg)
			if fresh1.Fingerprint != fresh2.Fingerprint {
				t.Errorf("lossy=%v place=%s: fresh runs differ: %x vs %x",
					lossy, place.Name(), fresh1.Fingerprint, fresh2.Fingerprint)
			}
			pool := cluster.NewPool()
			cfg.Pool = pool
			warm1 := Tenancy(cfg) // builds into the pool
			warm2 := Tenancy(cfg) // Reset reuse of the pooled cluster
			pool.Drain()
			if warm1.Fingerprint != fresh1.Fingerprint {
				t.Errorf("lossy=%v place=%s: pooled build differs from fresh: %x vs %x",
					lossy, place.Name(), warm1.Fingerprint, fresh1.Fingerprint)
			}
			if warm2.Fingerprint != fresh1.Fingerprint {
				t.Errorf("lossy=%v place=%s: warm reuse differs from fresh: %x vs %x",
					lossy, place.Name(), warm2.Fingerprint, fresh1.Fingerprint)
			}
		}
	}
}

// TestTenancySeedsAndPoliciesDiffer guards against a degenerate
// fingerprint: different seeds and different placement policies must
// actually change the run.
func TestTenancySeedsAndPoliciesDiffer(t *testing.T) {
	a := Tenancy(tenancyBase(RandomPlacement{}, false))
	b := tenancyBase(RandomPlacement{}, false)
	b.Seed = 99
	if Tenancy(b).Fingerprint == a.Fingerprint {
		t.Error("different seeds produced identical runs")
	}
	g := Tenancy(tenancyBase(GreedyPlacement{}, false))
	if g.Fingerprint == a.Fingerprint {
		t.Error("greedy and random placement produced identical runs")
	}
}

// TestTenancyJobAccounting checks scheduler invariants: every job ran,
// on the requested node count, with Start ≥ Arrival, End > Start, and
// no two concurrent jobs sharing a node.
func TestTenancyJobAccounting(t *testing.T) {
	cfg := tenancyBase(RandomPlacement{}, false)
	cfg.Jobs = 8
	cfg.MinNodes, cfg.MaxNodes = 2, 16 // pin what defaults() would pick
	r := Tenancy(cfg)
	if len(r.Jobs) != cfg.Jobs {
		t.Fatalf("ran %d jobs, want %d", len(r.Jobs), cfg.Jobs)
	}
	for _, j := range r.Jobs {
		if j.Start < j.Arrival {
			t.Errorf("job %d started at %v before its arrival %v", j.ID, j.Start, j.Arrival)
		}
		if j.End <= j.Start {
			t.Errorf("job %d ended at %v, started at %v", j.ID, j.End, j.Start)
		}
		if j.JCT != j.End-j.Arrival {
			t.Errorf("job %d JCT %v != End-Arrival %v", j.ID, j.JCT, j.End-j.Arrival)
		}
		if len(j.Nodes) < cfg.MinNodes || len(j.Nodes) > cfg.MaxNodes {
			t.Errorf("job %d on %d nodes outside [%d,%d]", j.ID, len(j.Nodes), cfg.MinNodes, cfg.MaxNodes)
		}
	}
	// Overlapping jobs must occupy disjoint nodes.
	for i, a := range r.Jobs {
		for _, b := range r.Jobs[i+1:] {
			if a.Start >= b.End || b.Start >= a.End {
				continue
			}
			used := map[int]bool{}
			for _, n := range a.Nodes {
				used[n] = true
			}
			for _, n := range b.Nodes {
				if used[n] {
					t.Fatalf("jobs %d and %d overlap in time and share node %d", a.ID, b.ID, n)
				}
			}
		}
	}
}

// TestTenancyGreedyBeatsRandomLocality pins the placement policies'
// defining property on an oversubscribed fabric with a locality-
// sensitive workload: greedy packing keeps jobs under fewer leaves
// than random scatter, so its reduction trees cross fewer tapered
// uplinks and its jobs complete no slower on aggregate.
func TestTenancyGreedyBeatsRandomLocality(t *testing.T) {
	mk := func(place Placement) TenancyConfig {
		return TenancyConfig{
			Specs: model.Uniform(64),
			Topo:  topo.Spec{Kind: topo.FatTree, K: 16, Oversub: 8},
			Jobs:  8, Seed: 3, Style: StyleBypass, Place: place,
			MinNodes: 8, MaxNodes: 8, Iters: 6,
			MeanArrival: sim.Time(50 * time.Microsecond),
			Count:       256, // large payloads make uplink contention visible
		}
	}
	// Static locality check: greedy placements span no more leaves than
	// random ones, job for job (leaves hold 8 nodes = the job size, so
	// greedy should often hit a single leaf).
	tp := topo.Build(mk(nil).Topo, 64)
	spread := func(nodes []int) int {
		leaves := map[int]bool{}
		for _, n := range nodes {
			leaves[tp.Leaf(n)] = true
		}
		return len(leaves)
	}
	rr := Tenancy(mk(RandomPlacement{}))
	gr := Tenancy(mk(GreedyPlacement{}))
	var rSpread, gSpread int
	for i := range rr.Jobs {
		rSpread += spread(rr.Jobs[i].Nodes)
		gSpread += spread(gr.Jobs[i].Nodes)
	}
	if gSpread >= rSpread {
		t.Errorf("greedy leaf spread %d not tighter than random %d", gSpread, rSpread)
	}
	if gr.JCT.P50 > rr.JCT.P50 {
		t.Errorf("greedy JCT p50 %v worse than random %v on a locality-sensitive workload",
			gr.JCT.P50, rr.JCT.P50)
	}
}

// TestTenancyGenetic sanity-checks the GA policy: valid disjoint
// placements, deterministic, and locality no worse than random.
func TestTenancyGenetic(t *testing.T) {
	cfg := tenancyBase(GeneticPlacement{}, false)
	a := Tenancy(cfg)
	if Tenancy(cfg).Fingerprint != a.Fingerprint {
		t.Error("genetic placement is not deterministic")
	}
}

// TestTenancyParallelDeterminism pins the (seed, jobID) stream
// derivation end to end: a tenancy comparison executed on a sweep
// worker pool must be byte-identical at any parallelism, exactly like
// CompareParallel (satellite audit: no draw may flow through shared
// worker state).
func TestTenancyParallelDeterminism(t *testing.T) {
	styles := []Style{coll.AlgoBinomial, StyleBypass}
	run := func(workers int) []TenancyResult {
		jobs := make([]func() TenancyResult, len(styles))
		for i, s := range styles {
			jobs[i] = func() TenancyResult {
				cfg := tenancyBase(GreedyPlacement{}, false)
				cfg.Style = s
				return Tenancy(cfg)
			}
		}
		return sweep.Run(jobs, workers)
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i].Fingerprint != parallel[i].Fingerprint {
			t.Errorf("style %v: workers=1 fp %x != workers=4 fp %x",
				styles[i], serial[i].Fingerprint, parallel[i].Fingerprint)
		}
	}
}

// TestCompareParallelByteIdentical is the CompareParallel RNG audit
// pin: per-run streams derive from the run's own cluster kernel, so
// results are byte-identical at any -parallel N.
func TestCompareParallelByteIdentical(t *testing.T) {
	cfg := Config{Specs: model.Uniform(16), Iters: 6, Seed: 13,
		Topo: topo.Spec{Kind: topo.FatTree, K: 8}}
	styles := []Style{coll.AlgoBinomial, StyleBypass, coll.AlgoSplit}
	serial := CompareParallel(cfg, 1, styles...)
	parallel := CompareParallel(cfg, 4, styles...)
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.JobTime != b.JobTime || a.Signals != b.Signals || a.Events != b.Events ||
			a.ReduceCalls != b.ReduceCalls {
			t.Errorf("style %v: serial %+v != parallel %+v", styles[i], a, b)
		}
		if len(a.RootResults) != len(b.RootResults) {
			t.Fatalf("style %v: root result counts differ", styles[i])
		}
		for k := range a.RootResults {
			if a.RootResults[k] != b.RootResults[k] {
				t.Fatalf("style %v: root result %d differs", styles[i], k)
			}
		}
	}
}
