package serve

import (
	"fmt"
	"sync"
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
	Stopped     string  `json:"stopped"`      // converged|maxreps
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

	// The scenario's simulator configuration, parsed once from spec: cpu
	// when Jobs is 0, tenancy otherwise. Each repetition runs a copy
	// re-seeded by repSeed; the copies share the node specs, which no
	// run writes.
	cpu     bench.Config
	tenancy workload.TenancyConfig

	// slots is the server's worker semaphore, one slot of which the
	// caller holds for the whole run. Each of the first MinReps
	// repetitions may borrow an idle slot for itself alone; nil borrows
	// none.
	slots chan struct{}
	// hook, when set, runs at the start of every repetition; test-only
	// (the worker-bound and failure tests need slow or failing reps).
	hook func(rep int)

	ran, borrowed int // repetitions simulated, and how many on a borrowed slot
}

// repOut is one repetition's outcome: the primary metric, the simulated
// events, every named metric, and the error a simulator panic became.
type repOut struct {
	primary float64
	events  uint64
	metrics []metric
	err     error
}

// metric is one named per-repetition value.
type metric struct {
	name string
	v    float64
}

// newRunner parses a normalized spec into the simulator configuration
// every repetition of its run copies. Normalize has vetted every field,
// so no parse here can fail.
func newRunner(spec Spec, pool *cluster.Pool, slots chan struct{}, hook func(rep int)) *runner {
	r := &runner{spec: spec, slots: slots, hook: hook}
	specs, _ := clusterSpecs(spec.Cluster, spec.Nodes)
	algo, _ := coll.ParseAlgo(spec.Mode)
	ts, _ := topo.ParseSpec(spec.Topo)
	flt := fault.Config{Rule: fault.Rule{Drop: spec.Loss}} // no faults at loss 0
	if spec.Jobs > 0 {
		place, _ := workload.ParsePlacement(spec.Place)
		r.tenancy = workload.TenancyConfig{
			Specs:       specs,
			Topo:        ts,
			Fault:       flt,
			Jobs:        spec.Jobs,
			MeanArrival: sim.Time(spec.Arrival),
			Iters:       spec.Iters,
			Count:       spec.Count,
			MaxSkew:     sim.Time(spec.Skew),
			Style:       algo,
			Place:       place,
			Pool:        pool,
		}
		return r
	}
	engine, _ := cluster.ParseEngine(spec.Engine)
	r.cpu = bench.Config{
		Specs:     specs,
		Count:     spec.Count,
		Mode:      algo,
		MaxSkew:   sim.Time(spec.Skew),
		Iters:     spec.Iters,
		Fault:     flt,
		Topo:      ts,
		TopoAware: spec.TopoAware,
		LPs:       spec.LPs,
		Engine:    engine,
		Pool:      pool,
	}
	return r
}

// run executes the scenario: repeat the per-rep simulation under
// rep-derived seeds until the primary metric's confidence interval
// converges, then summarize every recorded metric over the reps.
//
// Converge draws repetitions 0…MinReps−1 whatever they return, so
// those are run up front, borrowing idle worker slots (ahead); the
// rest run one at a time as Converge draws them. Converge consumes
// every value in repetition order, so the Result is the same at any
// worker count.
func (r *runner) run() (*Result, error) {
	opts := stats.ConvergeOpts{
		RelCI:   r.spec.RelCI,
		MinReps: r.spec.MinReps,
		MaxReps: r.spec.MaxReps,
	}
	outs := r.ahead(opts.Defaults().MinReps)
	var err error
	conv := stats.Converge(opts, func(rep int) float64 {
		if err != nil {
			return 0 // a repetition failed: the run is lost, simulate no more
		}
		if rep == len(outs) {
			r.ran++
			outs = append(outs, r.rep(rep))
		}
		err = outs[rep].err
		return outs[rep].primary
	})
	if err != nil {
		return nil, err
	}

	scenario, primary := "cpu", "avg_cpu_us"
	if r.spec.Jobs > 0 {
		scenario, primary = "tenancy", "jct_p50_us"
	}
	var events uint64
	samples := make(map[string][]float64)
	for _, o := range outs {
		events += o.events
		for _, m := range o.metrics {
			samples[m.name] = append(samples[m.name], m.v)
		}
	}
	res := &Result{
		Spec:        r.spec,
		Key:         r.spec.Key(),
		Scenario:    scenario,
		Primary:     primary,
		Reps:        len(conv.Xs),
		Converged:   conv.Converged,
		Stopped:     conv.Stopped,
		TargetRelCI: r.spec.RelCI,
		RelCI:       conv.Summary.RelCI95(),
		Metrics:     make(map[string]stats.FloatSummary, len(samples)),
		Samples:     conv.Xs,
		Events:      events,
	}
	for name, xs := range samples {
		res.Metrics[name] = stats.SummarizeFloats(xs)
	}
	return res, nil
}

// ahead runs repetitions 0…n−1. The caller runs them itself and,
// before each one it starts, hands the next ones to idle worker slots
// while any are free. A borrowed slot runs exactly one repetition and
// is released, so a request queued on the semaphore waits for at most
// one repetition and no more than cap(slots) simulate at once.
func (r *runner) ahead(n int) []repOut {
	outs := make([]repOut, n)
	var wg sync.WaitGroup
	for next := 0; next < n; {
		mine := next
		next++
		for next < n && r.borrow() {
			r.borrowed++
			wg.Add(1)
			go func(rep int) {
				defer wg.Done()
				defer func() { <-r.slots }()
				outs[rep] = r.rep(rep)
			}(next)
			next++
		}
		outs[mine] = r.rep(mine)
	}
	wg.Wait()
	r.ran += n
	return outs
}

// borrow takes an idle worker slot without blocking. A full semaphore
// (every slot running, or requests queued on it) lends nothing.
func (r *runner) borrow() bool {
	select {
	case r.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// rep runs one repetition of the scenario. A panic deep inside the
// simulator (an unmodelable knob combination that survived Normalize)
// becomes the repetition's error, not a dead server goroutine.
func (r *runner) rep(rep int) (out repOut) {
	defer func() {
		if p := recover(); p != nil {
			out = repOut{err: fmt.Errorf("scenario failed: %v", p)}
		}
	}()
	if r.hook != nil {
		r.hook(rep)
	}
	if r.spec.Jobs > 0 {
		return r.tenancyRep(rep)
	}
	return r.cpuRep(rep)
}

// cpuRep runs one repetition of the CPU-utilization scenario; its
// primary is the mean per-node reduction CPU, µs.
func (r *runner) cpuRep(rep int) repOut {
	cfg := r.cpu
	cfg.Seed, cfg.Fault.Seed = repSeed(r.spec.Seed, rep), repSeed(r.spec.FaultSeed, rep)
	res := bench.CPUUtil(cfg)
	out := repOut{primary: us(res.AvgCPU), events: res.Events, metrics: []metric{
		{"avg_cpu_us", us(res.AvgCPU)},
		{"node_cpu_p99_us", us(res.Summary.P99)},
		{"elapsed_us", us(res.Elapsed)},
		{"signals", float64(res.Signals)},
	}}
	if cfg.Topo.Kind != topo.Crossbar {
		out.metrics = append(out.metrics,
			metric{"link_waits", float64(res.LinkWaits)},
			metric{"link_wait_us", us(res.LinkWait)})
	}
	if cfg.Engine == cluster.EngineFlow {
		out.metrics = append(out.metrics, metric{"fct_p99_us", us(res.FCT.P99)})
	}
	if r.spec.Loss > 0 {
		out.metrics = append(out.metrics, metric{"retransmits", float64(res.Rel.Retransmits)})
	}
	return out
}

// tenancyRep runs one repetition of the multi-tenant scenario: Jobs
// concurrent jobs with Poisson arrivals under the requested placement,
// reported as per-job completion-time percentiles.
func (r *runner) tenancyRep(rep int) repOut {
	cfg := r.tenancy
	cfg.Seed, cfg.Fault.Seed = repSeed(r.spec.Seed, rep), repSeed(r.spec.FaultSeed, rep)
	res := workload.Tenancy(cfg)
	return repOut{primary: us(res.JCT.P50), events: res.Events, metrics: []metric{
		{"jct_p50_us", us(res.JCT.P50)},
		{"jct_p95_us", us(res.JCT.P95)},
		{"cpu_us", us(res.CPU.Mean)},
		{"makespan_us", us(res.Makespan)},
	}}
}
