package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeBasics(t *testing.T) {
	xs := []time.Duration{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("summary = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]time.Duration{42})
	if s.Mean != 42 || s.Min != 42 || s.Max != 42 || s.Std != 0 || s.P99 != 42 {
		t.Errorf("single summary = %+v", s)
	}
}

// TestSummaryInvariants checks Min ≤ P50 ≤ P95 ≤ P99 ≤ Max and
// Min ≤ Mean ≤ Max for arbitrary samples.
func TestSummaryInvariants(t *testing.T) {
	f := func(raw []int32) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]time.Duration, len(raw))
		for i, v := range raw {
			xs[i] = time.Duration(v)
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max+1 // +1 absorbs float truncation at Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty must be 0")
	}
	if Mean([]time.Duration{10, 20, 30}) != 20 {
		t.Error("mean wrong")
	}
	if MeanFloat([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("float mean wrong")
	}
	if MeanFloat(nil) != 0 {
		t.Error("float mean of empty must be 0")
	}
}

func TestStdDev(t *testing.T) {
	s := Summarize([]time.Duration{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Std != 2 {
		t.Errorf("std = %v, want 2", s.Std)
	}
}

// TestStdLargeMean pins the Welford variance against catastrophic
// cancellation: a sample whose mean (~1e13 ns, a typical virtual
// timestamp) dwarfs its spread (~10 ns) loses every significant digit
// of the variance to the E[x²]−E[x]² subtraction in float64.
func TestStdLargeMean(t *testing.T) {
	base := time.Duration(1e13)
	s := Summarize([]time.Duration{base - 10, base, base + 10})
	want := math.Sqrt(200.0 / 3.0) // population std of {-10, 0, +10}
	if got := float64(s.Std); math.Abs(got-want) > 0.5 {
		t.Errorf("Std = %v ns, want ≈%.2f ns", got, want)
	}
	if s.Mean != base {
		t.Errorf("Mean = %v, want %v", s.Mean, base)
	}
}

// TestWelfordConsistency cross-checks the one-pass Welford recurrence
// against a two-pass reference (mean first, then centered squared
// deviations) on arbitrary samples, and pins the percentile fields to
// their nearest-rank definition: each Pq is a member of the sample, and
// at least ⌈q·N⌉ sample points lie at or below it.
func TestWelfordConsistency(t *testing.T) {
	f := func(raw []int32) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]time.Duration, len(raw))
		member := make(map[time.Duration]bool, len(raw))
		var sum float64
		for i, v := range raw {
			xs[i] = time.Duration(v)
			member[xs[i]] = true
			sum += float64(v)
		}
		s := Summarize(xs)
		mean := sum / float64(len(xs))
		var m2 float64
		for _, x := range xs {
			d := float64(x) - mean
			m2 += d * d
		}
		std := math.Sqrt(m2 / float64(len(xs)))
		if math.Abs(float64(s.Mean)-mean) > 1 {
			t.Logf("mean: one-pass %v, two-pass %.2f", s.Mean, mean)
			return false
		}
		if math.Abs(float64(s.Std)-std) > 1+1e-9*std {
			t.Logf("std: one-pass %v, two-pass %.2f", s.Std, std)
			return false
		}
		for _, pq := range []struct {
			q float64
			v time.Duration
		}{{0.50, s.P50}, {0.95, s.P95}, {0.99, s.P99}} {
			if !member[pq.v] {
				t.Logf("P%.0f = %v is not a sample member", pq.q*100, pq.v)
				return false
			}
			atOrBelow := 0
			for _, x := range xs {
				if x <= pq.v {
					atOrBelow++
				}
			}
			if atOrBelow < int(math.Ceil(pq.q*float64(len(xs)))) {
				t.Logf("P%.0f = %v covers %d/%d", pq.q*100, pq.v, atOrBelow, len(xs))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPercentilesTable pins the nearest-rank definition on explicit
// samples, N=1 and other tiny sizes included: Pq is sample member
// number ⌈q·N⌉ (1-based) of the ascending order.
func TestPercentilesTable(t *testing.T) {
	cases := []struct {
		name          string
		xs            []time.Duration
		p50, p95, p99 time.Duration
	}{
		{"n1", []time.Duration{7}, 7, 7, 7},
		{"n2", []time.Duration{20, 10}, 10, 20, 20},
		{"n3", []time.Duration{3, 1, 2}, 2, 3, 3},
		{"n4-ties", []time.Duration{5, 5, 1, 5}, 5, 5, 5},
		{"n10", []time.Duration{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5, 10, 10},
		{"n20", seq(20), 10, 19, 20},
		{"n100", seq(100), 50, 95, 99},
		{"n101", seq(101), 51, 96, 100},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := Summarize(c.xs)
			if s.P50 != c.p50 || s.P95 != c.p95 || s.P99 != c.p99 {
				t.Errorf("percentiles = %v/%v/%v, want %v/%v/%v",
					s.P50, s.P95, s.P99, c.p50, c.p95, c.p99)
			}
		})
	}
}

// seq returns {1..n} in descending order (Summarize must sort).
func seq(n int) []time.Duration {
	xs := make([]time.Duration, n)
	for i := range xs {
		xs[i] = time.Duration(n - i)
	}
	return xs
}

// TestCI95TinyN pins the confidence-interval edge cases: a single
// point has no interval (CI95 = 0 — one timing is not a statistic), a
// constant sample has a zero-width interval, and the first real case
// (N=2) matches the closed form 1.96·s/√2 with the n−1 sample std.
func TestCI95TinyN(t *testing.T) {
	cases := []struct {
		name string
		xs   []time.Duration
		want float64
	}{
		{"n1", []time.Duration{1000}, 0},
		{"n2-constant", []time.Duration{500, 500}, 0},
		{"n2", []time.Duration{100, 200}, 1.96 * math.Sqrt(5000) / math.Sqrt(2)},
		{"n3", []time.Duration{10, 20, 30}, 1.96 * 10 / math.Sqrt(3)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := Summarize(c.xs)
			if got := float64(s.CI95); math.Abs(got-c.want) > 1 {
				t.Errorf("CI95 = %v, want %.1f", got, c.want)
			}
		})
	}
	// The float path must agree on the same tiny samples.
	if s := SummarizeFloats([]float64{1000}); s.CI95 != 0 {
		t.Errorf("float n1 CI95 = %v, want 0", s.CI95)
	}
	if s := SummarizeFloats([]float64{10, 20, 30}); math.Abs(s.CI95-1.96*10/math.Sqrt(3)) > 1e-9 {
		t.Errorf("float n3 CI95 = %v", s.CI95)
	}
}

func TestMicros(t *testing.T) {
	if got := Micros(1500 * time.Nanosecond); got != "1.5" {
		t.Errorf("Micros = %q", got)
	}
	if got := Micros(2 * time.Millisecond); got != "2000.0" {
		t.Errorf("Micros = %q", got)
	}
}

// histOf counts xs by value.
func histOf(xs []time.Duration) Hist {
	h := Hist{}
	for _, x := range xs {
		h[x]++
	}
	return h
}

// TestSummarizeHistMatchesExpanded pins SummarizeHist to Summarize on
// the sample the histogram counts: N, Min, Max and the nearest-rank
// percentiles exactly, the moments to within a nanosecond.
func TestSummarizeHistMatchesExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	samples := map[string][]time.Duration{
		"n=1":       {42},
		"n=2":       {7, 3},
		"all-equal": {5, 5, 5, 5, 5, 5, 5},
		"ties":      {4, 1, 4, 4, 9, 1, 4, 2, 9, 9, 4},
	}
	for i := 0; i < 8; i++ {
		// Few distinct values over many points: every percentile lands
		// inside a run of ties, as flow completion times do.
		xs := make([]time.Duration, 1+rng.Intn(5000))
		for j := range xs {
			xs[j] = time.Duration(1e6 + rng.Intn(1+rng.Intn(500))*137)
		}
		samples[fmt.Sprintf("seeded-%d", i)] = xs
	}
	for name, xs := range samples {
		want, got := Summarize(xs), SummarizeHist(histOf(xs))
		if got.N != want.N || got.Min != want.Min || got.Max != want.Max ||
			got.P50 != want.P50 || got.P95 != want.P95 || got.P99 != want.P99 {
			t.Errorf("%s: hist %+v, expanded %+v", name, got, want)
		}
		for _, d := range [][2]time.Duration{{got.Mean, want.Mean}, {got.Std, want.Std}, {got.CI95, want.CI95}} {
			if diff := d[0] - d[1]; diff < -1 || diff > 1 {
				t.Errorf("%s: moments hist %+v, expanded %+v", name, got, want)
			}
		}
	}
	if s := SummarizeHist(nil); s != (Summary{}) {
		t.Errorf("empty histogram summary = %+v", s)
	}
}

// TestSummarizeHistOrderFree: the summary depends on the counts alone —
// not on the order the values were added in, nor on map iteration
// order, which differs from one range loop to the next.
func TestSummarizeHistOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]time.Duration, 3000)
	for i := range xs {
		xs[i] = time.Duration(rng.Int63n(1e9))
		if i%3 == 0 {
			xs[i] = xs[i/2] // ties
		}
	}
	want := SummarizeHist(histOf(xs))
	rev := slices.Clone(xs)
	slices.Reverse(rev)
	merged := histOf(rev[:1000])
	merged.Merge(histOf(rev[1000:]))
	for i := 0; i < 20; i++ {
		rng.Shuffle(len(xs), func(a, b int) { xs[a], xs[b] = xs[b], xs[a] })
		if got := SummarizeHist(histOf(xs)); got != want {
			t.Fatalf("shuffled insertion: %+v, want %+v", got, want)
		}
	}
	if got := SummarizeHist(merged); got != want {
		t.Fatalf("merged halves in reverse order: %+v, want %+v", got, want)
	}
}
