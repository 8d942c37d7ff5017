package stats

import "math"

// FloatSummary describes a float64 sample the same way Summary
// describes a duration sample: one-pass Welford moments, nearest-rank
// percentiles, and the normal-approximation 95% confidence half-width
// on the mean. It is the unit-agnostic form the scenario server reports
// per metric (microseconds, counts, ratios).
type FloatSummary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}

// SummarizeFloats computes a FloatSummary; it returns the zero value
// for an empty sample. It is Summarize's computation (summarize) on
// another unit.
func SummarizeFloats(xs []float64) FloatSummary {
	s := summarize(xs)
	return FloatSummary{
		N: s.n, Mean: s.mean, Std: s.std, CI95: s.ci95,
		Min: s.min, Max: s.max, P50: s.p50, P95: s.p95, P99: s.p99,
	}
}

// RelCI95 is the relative confidence half-width CI95/|Mean| — the
// quantity the Hunold & Carpen-Amarie repetition methodology drives to
// a target before a number may be reported. A degenerate sample with
// zero mean reports 0 when its half-width is also zero (a constant
// all-zero sample is perfectly converged) and +Inf otherwise.
func (s FloatSummary) RelCI95() float64 {
	if s.Mean == 0 {
		if s.CI95 == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return s.CI95 / math.Abs(s.Mean)
}

// ConvergeOpts bounds a Converge run. The zero value means: 5% target
// relative half-width, at least 3 and at most 32 repetitions.
type ConvergeOpts struct {
	RelCI   float64 // target CI95/|mean|; <= 0 means 0.05
	MinReps int     // repetitions before convergence may be declared; <= 0 means 3
	MaxReps int     // hard repetition budget; <= 0 means 32
}

// Defaults returns o with unset fields replaced by the documented
// defaults and MaxReps clamped to at least MinReps.
func (o ConvergeOpts) Defaults() ConvergeOpts {
	if o.RelCI <= 0 {
		o.RelCI = 0.05
	}
	if o.MinReps <= 0 {
		o.MinReps = 3
	}
	if o.MaxReps <= 0 {
		o.MaxReps = 32
	}
	if o.MaxReps < o.MinReps {
		o.MaxReps = o.MinReps
	}
	return o
}

// Stop reasons a Convergence reports.
const (
	StopConverged = "converged" // relative CI95 half-width under target
	StopMaxReps   = "maxreps"   // repetition budget exhausted first
)

// Convergence is the outcome of an adaptive-repetition run.
type Convergence struct {
	Xs        []float64    // every sample drawn, in repetition order
	Summary   FloatSummary // summary of Xs
	Converged bool         // the target relative half-width was reached
	Stopped   string       // StopConverged or StopMaxReps
}

// Converge repeats sample until the relative CI95 half-width of the
// collected measurements drops below the target, per the "MPI
// Benchmarking Revisited" methodology: a single-shot timing is not a
// result, and a mean without a converged confidence interval is not
// defensible. sample(rep) must produce repetition rep's measurement
// (typically a fresh run under a rep-derived seed); it is called
// MinReps..MaxReps times, one at a time, with the interval re-tested
// after each draw once MinReps have accumulated. The first MinReps
// draws always happen, whatever they return, so a caller may compute
// them ahead, in parallel, and hand them over in order.
//
// With a deterministic sample function the entire trajectory — the
// repetition count, every sample, the final summary — is a pure
// function of (opts, sample), which is what lets the scenario server
// cache converged responses byte-for-byte.
func Converge(opts ConvergeOpts, sample func(rep int) float64) Convergence {
	opts = opts.Defaults()
	var c Convergence
	for rep := 0; rep < opts.MaxReps; rep++ {
		c.Xs = append(c.Xs, sample(rep))
		if len(c.Xs) >= opts.MinReps {
			c.Summary = SummarizeFloats(c.Xs)
			if c.Summary.RelCI95() <= opts.RelCI {
				c.Converged = true
				c.Stopped = StopConverged
				return c
			}
		}
	}
	c.Summary = SummarizeFloats(c.Xs)
	c.Stopped = StopMaxReps
	return c
}
