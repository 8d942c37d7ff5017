// Package stats provides the small set of summary statistics the
// benchmark harness reports.
package stats

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Summary describes a sample of durations.
type Summary struct {
	N                   int
	Mean, Min, Max, Std time.Duration
	P50, P95, P99       time.Duration

	// CI95 is the half-width of the normal-approximation 95% confidence
	// interval on the mean (1.96·σ/√n), the interval the benchmarking
	// methodology of Hunold & Carpen-Amarie asks for in place of single
	// walls. Zero for samples of fewer than two points.
	CI95 time.Duration
}

// Summarize computes a Summary; it returns the zero value for an empty
// sample.
func Summarize(xs []time.Duration) Summary { return summarize(xs).duration() }

// Hist is a duration sample counted by value: each key is a value of
// the sample and its count, always positive, how often it occurs. A
// sample with few distinct values costs a few entries however long it
// is, so a run can count its every flow completion instead of keeping
// each one.
type Hist map[time.Duration]uint64

// Merge adds o's counts to h.
func (h Hist) Merge(o Hist) {
	for x, c := range o {
		h[x] += c
	}
}

// SummarizeHist is Summarize over the sample h counts. N, Min, Max and
// the percentiles equal Summarize's on the expanded sample exactly; the
// moments are accumulated over the values in ascending order, so they
// do not depend on map order but may differ from Summarize's, which
// accumulates in sample order, in the last bits.
func SummarizeHist(h Hist) Summary {
	if len(h) == 0 {
		return Summary{}
	}
	keys := make([]time.Duration, 0, len(h))
	for x := range h {
		keys = append(keys, x)
	}
	slices.Sort(keys)
	s := summary[time.Duration]{min: keys[0], max: keys[len(keys)-1]}
	// Welford's recurrence with weights: a value seen c times moves the
	// mean by c/n of its distance at once.
	var m2 float64
	for _, x := range keys {
		c := float64(h[x])
		s.n += int(h[x])
		f := float64(x)
		d := f - s.mean
		s.mean += d * c / float64(s.n)
		m2 += c * d * (f - s.mean)
	}
	s.spread(m2)
	// Nearest-rank percentiles: the value whose run of counts covers
	// the rank.
	at := func(p float64) time.Duration {
		i, seen := rank(p, s.n), 0
		for _, x := range keys {
			if seen += int(h[x]); i < seen {
				return x
			}
		}
		return s.max
	}
	s.p50, s.p95, s.p99 = at(0.50), at(0.95), at(0.99)
	return s.duration()
}

// summary is what Summarize, SummarizeHist and SummarizeFloats report,
// before each rounds the moments into its own unit.
type summary[T ~int64 | ~float64] struct {
	n                       int
	min, max, p50, p95, p99 T
	mean, std, ci95         float64
}

// duration rounds a duration summary's moments into a Summary.
func (s summary[T]) duration() Summary {
	return Summary{
		N: s.n, Min: time.Duration(s.min), Max: time.Duration(s.max),
		P50: time.Duration(s.p50), P95: time.Duration(s.p95), P99: time.Duration(s.p99),
		Mean: time.Duration(s.mean), Std: time.Duration(s.std), CI95: time.Duration(s.ci95),
	}
}

// spread sets std and ci95 from the sum of squared deviations m2 of
// s's n points. std is the population standard deviation; ci95 uses
// the n−1 sample variance and is zero below two points.
func (s *summary[T]) spread(m2 float64) {
	if variance := m2 / float64(s.n); variance > 0 {
		s.std = math.Sqrt(variance)
		if s.n > 1 {
			// Sample variance (n-1) for the interval: the population std
			// above stays byte-compatible with what earlier figures record.
			sampleStd := math.Sqrt(m2 / float64(s.n-1))
			s.ci95 = 1.96 * sampleStd / math.Sqrt(float64(s.n))
		}
	}
}

// summarize is the computation behind Summarize and SummarizeFloats:
// moments accumulated in float64, nearest-rank percentiles (always
// members of the sample).
func summarize[T ~int64 | ~float64](xs []T) summary[T] {
	if len(xs) == 0 {
		return summary[T]{}
	}
	s := summary[T]{n: len(xs), min: xs[0], max: xs[0]}
	// Welford's one-pass recurrence: the textbook E[x²]−E[x]² form
	// cancels catastrophically when the mean dwarfs the spread (sample
	// timestamps near 1e13 ns with ~10 ns of jitter lose every
	// significant digit of the variance to the subtraction).
	var m2 float64
	for i, x := range xs {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
		f := float64(x)
		d := f - s.mean
		s.mean += d / float64(i+1)
		m2 += d * (f - s.mean)
	}
	s.spread(m2)
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	s.p50 = sorted[rank(0.50, s.n)]
	s.p95 = sorted[rank(0.95, s.n)]
	s.p99 = sorted[rank(0.99, s.n)]
	return s
}

// rank is the 0-based index of the nearest-rank p-quantile in an
// ascending sample of n > 0 points.
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)
}

// Mean averages a duration sample.
func Mean(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return time.Duration(sum / float64(len(xs)))
}

// MeanFloat averages a float sample.
func MeanFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Micros renders a duration as microseconds with one decimal.
func Micros(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond))
}
