package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestConvergeInjectedNoise drives the convergence loop with injected
// noisy timings: a seeded normal sample around 100µs with 2µs of noise.
// The relative half-width shrinks as 1/√n, so the loop must stop on its
// own, converged, with at least MinReps draws — and the summary must
// describe exactly the draws taken.
func TestConvergeInjectedNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	calls := 0
	c := Converge(ConvergeOpts{RelCI: 0.05, MinReps: 3, MaxReps: 64}, func(rep int) float64 {
		if rep != calls {
			t.Fatalf("rep %d delivered out of order (want %d)", rep, calls)
		}
		calls++
		return 100 + 2*rng.NormFloat64()
	})
	if !c.Converged || c.Stopped != StopConverged {
		t.Fatalf("noisy sample did not converge: %+v", c)
	}
	if len(c.Xs) != calls || c.Summary.N != calls {
		t.Fatalf("summary over %d, drew %d", c.Summary.N, calls)
	}
	if calls < 3 {
		t.Fatalf("declared convergence after %d reps, MinReps 3", calls)
	}
	if rel := c.Summary.RelCI95(); rel > 0.05 {
		t.Fatalf("converged with relative CI %v > target", rel)
	}
}

// TestConvergeHighVariance: an alternating high-variance sequence whose
// relative half-width never reaches the target must stop at MaxReps
// with Converged false.
func TestConvergeHighVariance(t *testing.T) {
	c := Converge(ConvergeOpts{RelCI: 0.01, MinReps: 3, MaxReps: 8}, func(rep int) float64 {
		if rep%2 == 0 {
			return 10
		}
		return 1000
	})
	if c.Converged || c.Stopped != StopMaxReps {
		t.Fatalf("high-variance sample claimed convergence: %+v", c)
	}
	if len(c.Xs) != 8 {
		t.Fatalf("drew %d reps, budget 8", len(c.Xs))
	}
}

// TestConvergeConstant: a constant sample has a zero half-width and
// must converge at exactly MinReps — including the all-zero sample,
// whose relative CI is 0/0 and defined as converged.
func TestConvergeConstant(t *testing.T) {
	for _, v := range []float64{42, 0} {
		c := Converge(ConvergeOpts{MinReps: 4, MaxReps: 32}, func(rep int) float64 { return v })
		if !c.Converged || len(c.Xs) != 4 {
			t.Fatalf("constant %v: %+v", v, c)
		}
	}
}

// TestConvergeDefaults pins the documented zero-value defaults.
func TestConvergeDefaults(t *testing.T) {
	d := ConvergeOpts{}.Defaults()
	if d.RelCI != 0.05 || d.MinReps != 3 || d.MaxReps != 32 {
		t.Fatalf("defaults = %+v", d)
	}
	if d = (ConvergeOpts{MinReps: 10, MaxReps: 5}).Defaults(); d.MaxReps != 10 {
		t.Fatalf("MaxReps not clamped to MinReps: %+v", d)
	}
}

// TestSummarizeFloatsMatchesDurations cross-checks the float summary
// against the duration summary on the same sample.
func TestSummarizeFloatsMatchesDurations(t *testing.T) {
	xs := []time.Duration{2, 4, 4, 4, 5, 5, 7, 9}
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	ds, ss := Summarize(xs), SummarizeFloats(fs)
	if ss.N != ds.N || ss.Mean != float64(ds.Mean) || math.Abs(ss.Std-2) > 1e-9 ||
		ss.P50 != float64(ds.P50) || ss.P95 != float64(ds.P95) || ss.P99 != float64(ds.P99) ||
		math.Abs(ss.CI95-float64(ds.CI95)) > 1 {
		t.Fatalf("float summary %+v disagrees with duration summary %+v", ss, ds)
	}
}

func TestRelCI95(t *testing.T) {
	if r := (FloatSummary{}).RelCI95(); r != 0 {
		t.Errorf("zero summary RelCI95 = %v", r)
	}
	if r := (FloatSummary{CI95: 1}).RelCI95(); !math.IsInf(r, 1) {
		t.Errorf("zero-mean nonzero-CI RelCI95 = %v, want +Inf", r)
	}
	if r := (FloatSummary{Mean: -200, CI95: 10}).RelCI95(); r != 0.05 {
		t.Errorf("RelCI95 = %v, want 0.05 (negative means use |mean|)", r)
	}
}
