package bench

// These tests assert the qualitative results of the paper's evaluation
// (§VI) — the reproduction's success criteria from DESIGN.md. They use
// reduced iteration counts; the full-resolution sweeps live in
// cmd/abbench.

import (
	"testing"
	"time"

	"abred/internal/coll"
	"abred/internal/model"
	"abred/internal/sim"
)

const (
	mus        = time.Microsecond
	shapeIters = 40
	shapeSeed  = 20030701
)

func cpu(t *testing.T, mode Mode, size, count int, skew sim.Time) CPUUtilResult {
	t.Helper()
	return CPUUtil(Config{
		Specs: model.PaperCluster(size), Count: count, Mode: mode,
		MaxSkew: skew, Iters: shapeIters, Seed: shapeSeed,
	})
}

func lat(t *testing.T, mode Mode, size, count int) LatencyResult {
	t.Helper()
	return Latency(Config{
		Specs: model.PaperCluster(size), Count: count, Mode: mode,
		Iters: shapeIters, Seed: shapeSeed,
	})
}

// TestFig6Shape: under skew, nab CPU grows roughly linearly while ab
// stays nearly flat; the factor of improvement at 1000 µs / 4 elements
// is about 5 (paper: 5.1).
func TestFig6Shape(t *testing.T) {
	nab0 := cpu(t, NonAppBypass, 32, 4, 0)
	nab500 := cpu(t, NonAppBypass, 32, 4, 500*mus)
	nab1000 := cpu(t, NonAppBypass, 32, 4, 1000*mus)
	ab0 := cpu(t, AppBypass, 32, 4, 0)
	ab1000 := cpu(t, AppBypass, 32, 4, 1000*mus)

	if !(nab0.AvgCPU < nab500.AvgCPU && nab500.AvgCPU < nab1000.AvgCPU) {
		t.Errorf("nab CPU not increasing with skew: %v %v %v", nab0.AvgCPU, nab500.AvgCPU, nab1000.AvgCPU)
	}
	// nab should grow by hundreds of percent; ab by far less in
	// absolute terms (the paper's "nearly flat").
	nabGrowth := nab1000.AvgCPU - nab0.AvgCPU
	abGrowth := ab1000.AvgCPU - ab0.AvgCPU
	if abGrowth*5 > nabGrowth {
		t.Errorf("ab grew %v vs nab %v; ab must stay comparatively flat", abGrowth, nabGrowth)
	}
	factor := float64(nab1000.AvgCPU) / float64(ab1000.AvgCPU)
	if factor < 3.5 || factor > 7.5 {
		t.Errorf("factor at 1000µs/4elem = %.2f, want ≈5 (paper: 5.1)", factor)
	}
}

// TestFig6MessageSizeOrdering: the factor of improvement is greatest
// for small messages (paper §VI-A).
func TestFig6MessageSizeOrdering(t *testing.T) {
	factors := map[int]float64{}
	for _, count := range []int{4, 128} {
		nab := cpu(t, NonAppBypass, 32, count, 1000*mus)
		ab := cpu(t, AppBypass, 32, count, 1000*mus)
		factors[count] = float64(nab.AvgCPU) / float64(ab.AvgCPU)
	}
	if factors[4] <= factors[128] {
		t.Errorf("factor(4 elem)=%.2f must exceed factor(128 elem)=%.2f", factors[4], factors[128])
	}
}

// TestFig7Shape: the factor of improvement increases with system size
// (the paper's scalability claim).
func TestFig7Shape(t *testing.T) {
	factor := func(size int) float64 {
		nab := cpu(t, NonAppBypass, size, 4, 1000*mus)
		ab := cpu(t, AppBypass, size, 4, 1000*mus)
		return float64(nab.AvgCPU) / float64(ab.AvgCPU)
	}
	f4, f16, f32 := factor(4), factor(16), factor(32)
	if !(f4 < f16 && f16 < f32) {
		t.Errorf("factor must grow with nodes: f4=%.2f f16=%.2f f32=%.2f", f4, f16, f32)
	}
	if f32 < 3.5 {
		t.Errorf("factor at 32 nodes = %.2f, want ≈5", f32)
	}
}

// TestFig8Shape: without artificial skew, natural skew grows with
// system size; ab crosses above nab earlier for larger messages and
// wins at 32 nodes / 128 elements (paper: factor 1.5).
func TestFig8Shape(t *testing.T) {
	factor := func(size, count int) float64 {
		nab := cpu(t, NonAppBypass, size, count, 0)
		ab := cpu(t, AppBypass, size, count, 0)
		return float64(nab.AvgCPU) / float64(ab.AvgCPU)
	}
	f4small, f32small := factor(4, 4), factor(32, 4)
	f4big, f32big := factor(4, 128), factor(32, 128)
	if f32small <= f4small {
		t.Errorf("4-elem factor must grow with nodes: %.2f -> %.2f", f4small, f32small)
	}
	if f32big <= f4big {
		t.Errorf("128-elem factor must grow with nodes: %.2f -> %.2f", f4big, f32big)
	}
	if f32big < 1.0 {
		t.Errorf("ab must win at 32 nodes/128 elems: factor %.2f (paper: 1.5)", f32big)
	}
	if f32big <= f32small {
		t.Errorf("larger messages must cross earlier: 128-elem %.2f vs 4-elem %.2f at 32", f32big, f32small)
	}
	// Small clusters, small messages: ab pays its overhead (paper
	// Fig. 8b starts below 1).
	if f4small >= 1.0 {
		t.Errorf("ab should lose on 4 quiet nodes: factor %.2f", f4small)
	}
}

// TestFig9Shape: latency near-identical at small sizes, and past 4
// nodes ab pays a signal penalty.
func TestFig9Shape(t *testing.T) {
	for _, size := range []int{2, 4} {
		nab := lat(t, NonAppBypass, size, 1)
		ab := lat(t, AppBypass, size, 1)
		gap := float64(ab.AvgLatency-nab.AvgLatency) / float64(mus)
		if gap > 15 {
			t.Errorf("%d nodes: ab latency penalty %0.1fµs too large for a small system", size, gap)
		}
	}
	nab32 := lat(t, NonAppBypass, 32, 1)
	ab32 := lat(t, AppBypass, 32, 1)
	gap := ab32.AvgLatency - nab32.AvgLatency
	if gap < 10*mus || gap > 60*mus {
		t.Errorf("32 nodes: ab-nab gap = %v, want a clear signal-overhead penalty (10–60µs)", gap)
	}
	if nab32.AvgLatency <= lat(t, NonAppBypass, 8, 1).AvgLatency {
		t.Error("latency must grow with system size")
	}
}

// TestFig9Homogeneous: on the homogeneous 700 MHz cluster small systems
// are nearly identical (paper Fig. 9b).
func TestFig9Homogeneous(t *testing.T) {
	nab := Latency(Config{Specs: model.Homogeneous700(4), Count: 1, Mode: NonAppBypass, Iters: shapeIters, Seed: shapeSeed})
	ab := Latency(Config{Specs: model.Homogeneous700(4), Count: 1, Mode: AppBypass, Iters: shapeIters, Seed: shapeSeed})
	diff := ab.AvgLatency - nab.AvgLatency
	if diff < 0 {
		diff = -diff
	}
	if diff > 20*mus {
		t.Errorf("homogeneous 4 nodes: |ab-nab| = %v, want near-identical", diff)
	}
}

// TestFig10Shape: the ab latency penalty stays roughly constant as the
// message grows (paper: "stabilizes and remains fairly constant").
func TestFig10Shape(t *testing.T) {
	gapAt := func(count int) sim.Time {
		nab := lat(t, NonAppBypass, 32, count)
		ab := lat(t, AppBypass, 32, count)
		return ab.AvgLatency - nab.AvgLatency
	}
	g1, g64, g128 := gapAt(1), gapAt(64), gapAt(128)
	for _, g := range []sim.Time{g1, g64, g128} {
		if g <= 0 {
			t.Fatalf("expected a positive ab penalty, got %v/%v/%v", g1, g64, g128)
		}
	}
	// Constant-ish: the largest gap within 2.5x of the smallest.
	lo, hi := g1, g1
	for _, g := range []sim.Time{g64, g128} {
		if g < lo {
			lo = g
		}
		if g > hi {
			hi = g
		}
	}
	if float64(hi) > 2.5*float64(lo) {
		t.Errorf("gap not stable across message sizes: %v %v %v", g1, g64, g128)
	}
	// And latency itself must grow with message size.
	if lat(t, NonAppBypass, 32, 128).AvgLatency <= lat(t, NonAppBypass, 32, 1).AvgLatency {
		t.Error("latency must grow with message size")
	}
}

// TestScaleProjectionExtends: past the paper's 32 nodes the factor
// keeps growing (its §VII scalability expectation).
func TestScaleProjectionExtends(t *testing.T) {
	tab := ScaleProjection([]int{32, 64}, 1000*mus, 4, Config{Iters: 25, Seed: shapeSeed}, 0)
	f32 := tab.Rows[0][2]
	f64 := tab.Rows[1][2]
	if f64 <= f32 {
		t.Errorf("factor at 64 nodes (%.2f) should exceed 32 nodes (%.2f)", f64, f32)
	}
}

// TestDelayAblationReducesSignals: the §IV-E heuristic trades in-call
// time for fewer signals.
func TestDelayAblationReducesSignals(t *testing.T) {
	tab := AblationDelay(16, 4, 100*mus, Config{Iters: 30, Seed: shapeSeed}, 0)
	first := tab.Rows[0][1] // signals at zero delay
	last := tab.Rows[len(tab.Rows)-1][1]
	if last >= first {
		t.Errorf("long exit delay should reduce signals: %v -> %v", first, last)
	}
}

// TestCPUUtilDeterministic: the whole benchmark is reproducible.
func TestCPUUtilDeterministic(t *testing.T) {
	a := cpu(t, AppBypass, 8, 4, 300*mus)
	b := cpu(t, AppBypass, 8, 4, 300*mus)
	if a.AvgCPU != b.AvgCPU || a.Signals != b.Signals {
		t.Errorf("benchmark not deterministic: %v/%d vs %v/%d", a.AvgCPU, a.Signals, b.AvgCPU, b.Signals)
	}
	c := CPUUtil(Config{Specs: model.PaperCluster(8), Count: 4, Mode: AppBypass,
		MaxSkew: 300 * mus, Iters: shapeIters, Seed: 999})
	if c.AvgCPU == a.AvgCPU {
		t.Error("different seeds produced identical averages (suspicious)")
	}
}

// TestLatencySingleNodeAndOneWay sanity-checks the measurement method.
func TestLatencySingleNode(t *testing.T) {
	r := Latency(Config{Specs: model.Uniform(1), Count: 1, Mode: NonAppBypass, Iters: 5, Seed: 1})
	if r.AvgLatency < 0 {
		t.Errorf("negative latency %v", r.AvgLatency)
	}
	if r.OneWay != 0 {
		t.Errorf("single node cannot have a one-way latency, got %v", r.OneWay)
	}
}

// TestNICReduceCompetitive: the NIC extension beats the default under
// skew for small messages (host fully bypassed).
func TestNICReduceUnderSkew(t *testing.T) {
	nab := cpu(t, NonAppBypass, 16, 4, 800*mus)
	nic := cpu(t, coll.AlgoNIC, 16, 4, 800*mus)
	if float64(nab.AvgCPU)/float64(nic.AvgCPU) < 2 {
		t.Errorf("NIC-based reduction should clearly beat default under skew: nab=%v nic=%v", nab.AvgCPU, nic.AvgCPU)
	}
}

// TestTableRendering checks both output formats.
func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title: "test", XName: "x", Cols: []string{"a", "b"},
		X:     []float64{1, 2},
		Rows:  [][]float64{{1.5, 2.5}, {3, 4}},
		Notes: []string{"note"},
	}
	var txt, csv sbuf
	tab.Write(&txt)
	tab.WriteCSV(&csv)
	if len(txt.s) == 0 || len(csv.s) == 0 {
		t.Fatal("empty rendering")
	}
	if got := string(csv.s); got[0] != '#' {
		t.Errorf("csv missing title comment: %q", got)
	}
}

type sbuf struct{ s []byte }

func (b *sbuf) Write(p []byte) (int, error) {
	b.s = append(b.s, p...)
	return len(p), nil
}
