package main

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"abred/internal/bench"
	"abred/internal/cluster"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, b := makeRound(7, 3), makeRound(7, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("makeRound(7, 3) differs between two calls")
	}
	if reflect.DeepEqual(a, makeRound(8, 3)) || reflect.DeepEqual(a, makeRound(7, 4)) {
		t.Fatal("schedule does not depend on seed and round")
	}
	counts := map[reqKind]int{}
	for c := range a {
		if len(a[c]) != len(a[0]) {
			t.Fatalf("client %d has %d requests, client 0 has %d", c, len(a[c]), len(a[0]))
		}
		for _, q := range a[c] {
			counts[q.kind]++
		}
	}
	want := map[reqKind]int{kindCold: coldPerClass * len(coldClasses), kindHit: hitsPerRound,
		kindDedup: clients * pairsPerRnd, kindBad: badPerRound}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("mix %v, want %v", counts, want)
	}
	// Both clients meet the pairs in the same order, with the same body.
	var pairs [clients][]request
	for c := range a {
		for _, q := range a[c] {
			if q.kind == kindDedup {
				pairs[c] = append(pairs[c], q)
			}
		}
	}
	if !reflect.DeepEqual(pairs[0], pairs[1]) {
		t.Fatal("the two clients' dedup pairs differ")
	}
	// A variant spells the same hot scenario differently.
	if bytes.Equal(hotSpec(7, 1, false), hotSpec(7, 1, true)) {
		t.Fatal("variant spelling equals the canonical one")
	}

	if roundSeed(7, 0) != 8 || roundSeed(7, 2) != 10 {
		t.Fatalf("round seeds %d %d", roundSeed(7, 0), roundSeed(7, 2))
	}
	for name, cells := range batchWorkloads {
		for _, c := range cells {
			x, y := c.config(9, nil), c.config(9, nil)
			if x.Seed != 9 || x.Fault.Seed != y.Fault.Seed || (c.drop > 0) != x.Fault.Enabled() {
				t.Fatalf("%s/%s: seed %d fault %+v", name, c.name, x.Seed, x.Fault)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {99, 0}, {100, 90}, {180, 90}, {200, 95}, {2640, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 180)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tailValue(xs, 90); got != 162 {
		t.Errorf("p90 of 1..180 = %v, want 162", got)
	}
	if got := tailValue(xs, 99); got != 0 {
		t.Errorf("p99 of 180 samples = %v, want 0 (not reportable)", got)
	}
	if got := median(xs); got != 90.5 {
		t.Errorf("median of 1..180 = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	if got := quartileSpread(xs[:10]); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "round", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},   // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120},  // runs past the parent
		{Name: "a.x", Parent: 1, Start: 12, End: 20}, // grandchild: a's business, not round's
	}
	// round: [10,50] and [90,100] are covered, 50 of 100 remain.
	want := []int64{50, 12, 30, 30, 8}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	if got := selfByName(spans)["round"]; got != 50 {
		t.Fatalf("selfByName[round] = %v", got)
	}
	var tr *tracer
	tr.end(tr.begin("x", 0, -1)) // the untraced run records nothing and must not crash
}

func TestRankProgramMatchesCPUUtil(t *testing.T) {
	for _, c := range []cell{
		{name: "x64_nab", nodes: 64, mode: bench.NonAppBypass, iters: 5},
		{name: "x64_ab", nodes: 64, mode: bench.AppBypass, iters: 5},
		{name: "ft64_abtree_lossy_lps2", nodes: 64, mode: bench.AppBypass, iters: 5,
			topo: "fattree:8", lps: 2, drop: 0.01, topoAware: true},
	} {
		pool := cluster.NewPool()
		want, _ := runCell(c, 42, pool)
		var counts layerCounts
		got := runTracedPacketCell(c, 42, pool, newTracer(), 0, -1, &counts)
		if want.err != nil || got.err != nil {
			t.Fatalf("%s: %v / %v", c.name, want.err, got.err)
		}
		if !got.same(want) {
			t.Errorf("%s: program (%d ev, cpu %v, t %v, %d sig) != bench.CPUUtil (%d ev, cpu %v, t %v, %d sig)", c.name,
				got.events, got.avgCPU, got.elapsed, got.signals, want.events, want.avgCPU, want.elapsed, want.signals)
		}
		if counts.fabricFrames == 0 || (c.drop > 0) != (counts.faultDropped > 0) {
			t.Errorf("%s: counters %+v", c.name, counts)
		}
		pool.Drain()
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5}
	noisy := []float64{80, 120, 95, 130, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", verdictOK},
		{"slower within bound", steady, []float64{105, 106, 104, 105, 105}, "lower", verdictOK},
		{"slower beyond bound", steady, []float64{115, 116, 114, 115, 115}, "lower", verdictRegressed},
		{"throughput fell", steady, []float64{85, 86, 84, 85, 85}, "higher", verdictRegressed},
		{"throughput rose", steady, []float64{115, 116, 114, 115, 115}, "higher", verdictOK},
		{"noise hides the answer", noisy, noisy, "lower", verdictUnresolved},
		{"noisy but every run better", noisy, []float64{50, 60, 55, 70, 40}, "lower", verdictOK},
		{"single runs", []float64{100}, []float64{109}, "lower", verdictOK},
	} {
		if _, got := classify(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	set := func(wall float64) *resultSet {
		return &resultSet{Runs: map[string][]result{"packet_grid": {{Correct: true, Attempted: 1,
			Metrics: map[string]metric{"round_wall_s_p50": {Value: wall, Unit: "s"}}}}}}
	}
	var out bytes.Buffer
	n, err := compareSets(&out, spec, set(2.0), set(3.0))
	if err != nil || n != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Fatalf("compareSets: %d regressions, err %v\n%s", n, err, out.String())
	}
	if n, _ := compareSets(&out, spec, set(2.0), set(2.02)); n != 0 {
		t.Fatalf("compareSets flagged a 1%% change")
	}
}

// TestDeclaration holds BENCHMARK.json to what the program emits.
func TestDeclaration(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, name := range []string{"setup_s", "events_per_s", "round_wall_s_p50", "peak_rss_mb", "trace.overhead_pct"} {
		if !seen[name] {
			t.Errorf("metric %s not declared", name)
		}
	}
	if len(spec.Workloads) != len(batchWorkloads)+1 || !spec.hasWorkload("serve_mix") {
		t.Errorf("workloads %v", spec.Workloads)
	}
	for name, cells := range batchWorkloads {
		if !spec.hasWorkload(name) {
			t.Errorf("workload %s not declared", name)
		}
		for _, c := range cells {
			if !seen["bench.cell_ms_p50."+c.name] {
				t.Errorf("cell %s has no metric", c.name)
			}
		}
	}
	for _, c := range coldClasses {
		if !seen["serve.cold_ms_p50."+c.name] {
			t.Errorf("class %s has no metric", c.name)
		}
	}

	// A traced report carries every per-layer metric, 0 where nothing
	// was measured; an undeclared or missing name is a problem.
	res, problems := spec.report(values{"sim.events": 5}, true, 3, 0, nil)
	if len(res.Metrics) != len(spec.PerLayer) || res.Metrics["sim.events"].Value != 5 || !res.Correct || len(problems) != 0 {
		t.Errorf("traced report: %d metrics, correct %v, problems %v", len(res.Metrics), res.Correct, problems)
	}
	res, problems = spec.report(values{"no.such_metric": 1}, false, 3, 0, nil)
	if res.Correct || len(problems) != len(spec.EndToEnd)+1 {
		t.Errorf("bad report accepted: correct %v, problems %v", res.Correct, problems)
	}
}
