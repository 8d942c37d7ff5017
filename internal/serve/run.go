package serve

import (
	"fmt"
	"sort"
	"time"

	"abred/internal/bench"
	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/fault"
	"abred/internal/sim"
	"abred/internal/stats"
	"abred/internal/topo"
	"abred/internal/workload"
)

// Result is the JSON body of a successful /run response. It carries no
// wall-clock quantities: every field is a deterministic function of the
// normalized spec, so a cached body and a recomputed one are
// byte-identical (the golden-response guarantee). Execution-side
// numbers — latency, cache and pool activity — live on /metrics.
type Result struct {
	Spec Spec   `json:"spec"` // the normalized spec this result answers
	Key  string `json:"key"`  // its content address

	Scenario string `json:"scenario"` // "cpu" or "tenancy"
	Primary  string `json:"primary"`  // the metric the convergence loop drove

	Reps        int     `json:"reps"`         // repetitions executed
	Converged   bool    `json:"converged"`    // target relative CI95 reached
	Stopped     string  `json:"stopped"`      // converged|maxreps|budget
	TargetRelCI float64 `json:"target_relci"` // requested relative half-width
	RelCI       float64 `json:"relci"`        // achieved relative half-width (primary)

	// Metrics maps metric name to its summary over the repetitions.
	// encoding/json sorts map keys, so the rendering is deterministic.
	Metrics map[string]stats.FloatSummary `json:"metrics"`

	// Samples are the primary metric's per-repetition values in
	// repetition order — the raw evidence behind the interval.
	Samples []float64 `json:"samples"`

	// Events is the total simulated-event count across repetitions.
	Events uint64 `json:"events"`
}

// repSeed derives repetition r's simulation seed; repetition 0 keeps
// the base seed exactly, so a 1-rep scenario reproduces the abscale
// flag surface bit for bit.
func repSeed(seed int64, rep int) int64 {
	if rep == 0 {
		return seed
	}
	return seed ^ int64(rep)*0x2E3779B97F4A7C15
}

// us converts a virtual duration to microseconds.
func us(t sim.Time) float64 { return float64(t) / float64(time.Microsecond) }

// runner executes one normalized scenario to convergence. It is pure
// simulation: no wall-clock values enter the Result.
type runner struct {
	spec Spec
	pool *cluster.Pool

	// budget, when non-zero, bounds the wall clock spent repeating; an
	// unconverged budget-stopped response is then machine-dependent, so
	// servers that want strict byte-determinism leave it zero.
	budget time.Duration

	events  uint64
	samples map[string][]float64
}

// record appends one repetition's value for a named metric.
func (r *runner) record(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

// run executes the scenario: repeat the per-rep simulation under
// rep-derived seeds until the primary metric's confidence interval
// converges, then summarize every recorded metric over the reps.
func (r *runner) run() (*Result, error) {
	r.samples = make(map[string][]float64)
	var primary string
	var sample func(rep int) float64
	switch {
	case r.spec.Jobs > 0:
		primary = "jct_p50_us"
		sample = r.tenancyRep
	default:
		primary = "avg_cpu_us"
		sample = r.cpuRep
	}

	var err error
	conv := stats.Converge(stats.ConvergeOpts{
		RelCI:   r.spec.RelCI,
		MinReps: r.spec.MinReps,
		MaxReps: r.spec.MaxReps,
		Budget:  r.budget,
	}, func(rep int) (v float64) {
		defer func() {
			// A panic deep inside the simulator (an unmodelable knob
			// combination that survived Normalize) becomes a clean
			// scenario error, not a dead server goroutine.
			if p := recover(); p != nil {
				if err == nil {
					err = fmt.Errorf("scenario failed: %v", p)
				}
			}
		}()
		return sample(rep)
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Spec:        r.spec,
		Key:         r.spec.Key(),
		Scenario:    map[bool]string{true: "tenancy", false: "cpu"}[r.spec.Jobs > 0],
		Primary:     primary,
		Reps:        len(conv.Xs),
		Converged:   conv.Converged,
		Stopped:     conv.Stopped,
		TargetRelCI: r.spec.RelCI,
		RelCI:       conv.Summary.RelCI95(),
		Metrics:     make(map[string]stats.FloatSummary, len(r.samples)),
		Samples:     conv.Xs,
		Events:      r.events,
	}
	names := make([]string, 0, len(r.samples))
	for name := range r.samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.Metrics[name] = stats.SummarizeFloats(r.samples[name])
	}
	return res, nil
}

// benchConfig assembles the per-repetition bench.Config for the CPU
// scenario. Parse errors cannot occur here: Normalize already vetted
// every field.
func (r *runner) benchConfig(rep int) bench.Config {
	s := r.spec
	specs, err := clusterSpecs(s.Cluster, s.Nodes)
	if err != nil {
		panic("serve: " + err.Error())
	}
	algo, _ := coll.ParseAlgo(s.Mode)
	ts, _ := topo.ParseSpec(s.Topo)
	engine, _ := cluster.ParseEngine(s.Engine)
	cfg := bench.Config{
		Specs:     specs,
		Count:     s.Count,
		Mode:      algo,
		MaxSkew:   sim.Time(s.Skew),
		Iters:     s.Iters,
		Seed:      repSeed(s.Seed, rep),
		Topo:      ts,
		TopoAware: s.TopoAware,
		LPs:       s.LPs,
		Engine:    engine,
		Pool:      r.pool,
	}
	if s.Loss > 0 {
		cfg.Fault = fault.Config{Seed: repSeed(s.FaultSeed, rep), Rule: fault.Rule{Drop: s.Loss}}
	}
	return cfg
}

// cpuRep runs one repetition of the CPU-utilization scenario and
// records every metric; it returns the primary (mean per-node reduction
// CPU, µs).
func (r *runner) cpuRep(rep int) float64 {
	res := bench.CPUUtil(r.benchConfig(rep))
	r.events += res.Events
	r.record("avg_cpu_us", us(res.AvgCPU))
	r.record("node_cpu_p99_us", us(res.Summary.P99))
	r.record("elapsed_us", us(res.Elapsed))
	r.record("signals", float64(res.Signals))
	if ts, _ := topo.ParseSpec(r.spec.Topo); ts.Kind != topo.Crossbar {
		r.record("link_waits", float64(res.LinkWaits))
		r.record("link_wait_us", us(res.LinkWait))
	}
	if r.spec.Engine == "flow" {
		r.record("fct_p99_us", us(res.FCT.P99))
	}
	if r.spec.Loss > 0 {
		r.record("retransmits", float64(res.Rel.Retransmits))
	}
	return us(res.AvgCPU)
}

// tenancyRep runs one repetition of the multi-tenant scenario: Jobs
// concurrent jobs with Poisson arrivals under the requested placement,
// reported as per-job completion-time percentiles.
func (r *runner) tenancyRep(rep int) float64 {
	s := r.spec
	specs, err := clusterSpecs(s.Cluster, s.Nodes)
	if err != nil {
		panic("serve: " + err.Error())
	}
	ts, _ := topo.ParseSpec(s.Topo)
	place, _ := workload.ParsePlacement(s.Place)
	algo, _ := coll.ParseAlgo(s.Mode)
	cfg := workload.TenancyConfig{
		Specs:       specs,
		Topo:        ts,
		Seed:        repSeed(s.Seed, rep),
		Jobs:        s.Jobs,
		MeanArrival: sim.Time(s.Arrival),
		Iters:       s.Iters,
		Count:       s.Count,
		MaxSkew:     sim.Time(s.Skew),
		Style:       algo,
		Place:       place,
		Pool:        r.pool,
	}
	if s.Loss > 0 {
		cfg.Fault = fault.Config{Seed: repSeed(s.FaultSeed, rep), Rule: fault.Rule{Drop: s.Loss}}
	}
	res := workload.Tenancy(cfg)
	r.events += res.Events
	r.record("jct_p50_us", us(res.JCT.P50))
	r.record("jct_p95_us", us(res.JCT.P95))
	r.record("cpu_us", us(res.CPU.Mean))
	r.record("makespan_us", us(res.Makespan))
	return us(res.JCT.P50)
}
