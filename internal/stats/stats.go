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
func Summarize(xs []time.Duration) Summary {
	s := summarize(xs)
	return Summary{
		N: s.n, Min: s.min, Max: s.max, P50: s.p50, P95: s.p95, P99: s.p99,
		Mean: time.Duration(s.mean), Std: time.Duration(s.std), CI95: time.Duration(s.ci95),
	}
}

// summary is what Summarize and SummarizeFloats both report, before
// either rounds the moments into its own unit.
type summary[T ~int64 | ~float64] struct {
	n                       int
	min, max, p50, p95, p99 T
	mean, std, ci95         float64
}

// summarize is the one computation behind both exported summaries:
// moments accumulated in float64, nearest-rank percentiles (always
// members of the sample). std is the population standard deviation;
// ci95 uses the n−1 sample variance and is zero below two points.
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
	if variance := m2 / float64(len(xs)); variance > 0 {
		s.std = math.Sqrt(variance)
		if len(xs) > 1 {
			// Sample variance (n-1) for the interval: the population std
			// above stays byte-compatible with what earlier figures record.
			sampleStd := math.Sqrt(m2 / float64(len(xs)-1))
			s.ci95 = 1.96 * sampleStd / math.Sqrt(float64(len(xs)))
		}
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	s.p50 = percentile(sorted, 0.50)
	s.p95 = percentile(sorted, 0.95)
	s.p99 = percentile(sorted, 0.99)
	return s
}

// percentile reads the p-quantile from a non-empty ascending sample
// using nearest-rank.
func percentile[T any](sorted []T, p float64) T {
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
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
