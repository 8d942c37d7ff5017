// Package skew generates the process-skew patterns the benchmarks and
// workload models inject. The paper's microbenchmarks draw each node's
// delay uniformly from [0, max] (§VI); real applications skew for many
// reasons — §I lists heterogeneous nodes, unbalanced work, interrupts
// and resource contention — so the package also provides heavier-tailed
// and structured generators for sensitivity studies.
package skew

import (
	"fmt"
	"math"
	"math/rand"

	"abred/internal/sim"
)

// Dist draws per-(iteration, rank) delays. Implementations must be
// deterministic functions of the *rand.Rand stream passed in.
type Dist interface {
	// Draw returns the delay for one rank in one iteration.
	Draw(rng *rand.Rand) sim.Time
	// Name identifies the distribution in tables.
	Name() string
}

// Uniform draws from [0, Max] — the paper's benchmark skew.
type Uniform struct{ Max sim.Time }

// Draw implements Dist.
func (u Uniform) Draw(rng *rand.Rand) sim.Time {
	if u.Max <= 0 {
		return 0
	}
	return sim.Time(rng.Int63n(int64(u.Max) + 1))
}

// Name implements Dist.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(0,%v)", u.Max) }

// Exponential draws from an exponential distribution with the given
// mean, capped at 8× the mean — unbalanced work whose tail is longer
// than uniform's.
type Exponential struct{ Mean sim.Time }

// Draw implements Dist.
func (e Exponential) Draw(rng *rand.Rand) sim.Time {
	if e.Mean <= 0 {
		return 0
	}
	d := sim.Time(rng.ExpFloat64() * float64(e.Mean))
	if cap := 8 * e.Mean; d > cap {
		d = cap
	}
	return d
}

// Name implements Dist.
func (e Exponential) Name() string { return fmt.Sprintf("exp(mean=%v)", e.Mean) }

// Pareto draws from a bounded Pareto distribution (shape Alpha, scale
// Min, cap Max): mostly small delays with rare large stragglers —
// the "random effects such as interrupts" of §I.
type Pareto struct {
	Min, Max sim.Time
	Alpha    float64
}

// Draw implements Dist.
func (p Pareto) Draw(rng *rand.Rand) sim.Time {
	if p.Min <= 0 || p.Alpha <= 0 {
		return 0
	}
	u := rng.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	d := sim.Time(float64(p.Min) / math.Pow(1-u, 1/p.Alpha))
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	return d
}

// Name implements Dist.
func (p Pareto) Name() string { return fmt.Sprintf("pareto(a=%.1f,%v..%v)", p.Alpha, p.Min, p.Max) }

// Straggler makes one rank in P ranks late by Delay while the rest run
// on time — the paper's §IV-D scenario ("process six is consistently
// late") as a distribution: with probability 1/P a draw is Delay,
// otherwise zero.
type Straggler struct {
	P     int
	Delay sim.Time
}

// Draw implements Dist.
func (s Straggler) Draw(rng *rand.Rand) sim.Time {
	if s.P <= 1 || rng.Intn(s.P) == 0 {
		return s.Delay
	}
	return 0
}

// Name implements Dist.
func (s Straggler) Name() string { return fmt.Sprintf("straggler(1/%d,%v)", s.P, s.Delay) }

// None never delays.
type None struct{}

// Draw implements Dist.
func (None) Draw(*rand.Rand) sim.Time { return 0 }

// Name implements Dist.
func (None) Name() string { return "none" }

// Matrix pre-draws a full (iterations × ranks) delay matrix so results
// do not depend on the order ranks consume randomness in: one flat
// slab, sliced per iteration.
func Matrix(d Dist, rng *rand.Rand, iters, ranks int) [][]sim.Time {
	flat := make([]sim.Time, iters*ranks)
	m := make([][]sim.Time, iters)
	for it := range m {
		m[it] = flat[it*ranks : (it+1)*ranks]
		for r := range m[it] {
			m[it][r] = d.Draw(rng)
		}
	}
	return m
}

// Mean estimates the distribution's mean from n draws.
func Mean(d Dist, rng *rand.Rand, n int) sim.Time {
	if n <= 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(d.Draw(rng))
	}
	return sim.Time(sum / float64(n))
}
