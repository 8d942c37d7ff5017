// Package serve wraps the warmed cluster pool and the benchmark
// drivers in a long-running HTTP scenario service — the sweep engine
// offered as a queryable facility instead of a batch tool.
//
// Clients POST a scenario spec (cluster size and class mix, topology,
// skew, loss, reduction mode, engine, LP count, tenancy shape) to /run
// and receive a JSON result whose every metric carries mean, std and a
// 95% confidence half-width over adaptively repeated runs: repetitions
// continue until the primary metric's relative CI95 half-width drops
// below a target (default 5%), per the "MPI Benchmarking Revisited"
// methodology, and the response is stamped with the repetition count
// and a converged bool.
//
// Results are content-addressed: the spec is normalized (defaults
// applied, topology spellings collapsed through topo.Norm, durations
// canonicalized) and hashed, so every equivalent spelling of one
// scenario maps to one cache key, identical requests are served from an
// LRU (optionally backed by an on-disk store) without re-simulating,
// and identical concurrent requests collapse into a single simulation
// via single-flight deduplication. Because repetition seeds derive
// deterministically from the spec, a response body is a pure function
// of its normalized spec — cached and freshly computed bodies are
// byte-identical.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/model"
	"abred/internal/topo"
	"abred/internal/workload"
)

// Duration is a time.Duration that marshals as its canonical Go string
// ("1ms") and unmarshals from either a duration string or a raw
// nanosecond count, so spec spellings like "1000µs" and "1ms" collapse
// to one canonical form before hashing.
type Duration time.Duration

// MarshalJSON renders the canonical duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "150us"-style strings and raw nanosecond
// numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("duration must be a string or nanoseconds: %s", b)
	}
	*d = Duration(ns)
	return nil
}

// Spec is one scenario request — the POST body of /run. It covers the
// bench surface the abscale/abbench flags expose: cluster size and
// class mix, reduction mode, interconnect, simulation engine, LP
// partitioning, skew, loss, and the multi-tenant workload shape.
// Omitted fields take the documented defaults; Normalize fills them in,
// so the spec echoed in a response is always fully explicit.
type Spec struct {
	// Nodes is the cluster size (required, ≥ 2).
	Nodes int `json:"nodes"`
	// Cluster picks the node class mix: "paper" (the heterogeneous
	// testbed mix, default), "uniform", "homog700" or "homog1g".
	Cluster string `json:"cluster,omitempty"`
	// Mode is the reduction implementation: "ab" (application-bypass,
	// default), "nab" (binomial MPI_Reduce) or "nic" (NIC-based).
	Mode string `json:"mode,omitempty"`
	// Topo is the interconnect spec ("crossbar" default, "fattree:16",
	// "leafspine:8", ":oN" oversubscription suffix).
	Topo string `json:"topo,omitempty"`
	// Engine is the simulation engine: "packet" (default) or "flow".
	Engine string `json:"engine,omitempty"`
	// LPs partitions the simulation into pod-aligned logical processes
	// (0/1 = monolithic).
	LPs int `json:"lps,omitempty"`
	// Count is the elements per reduction (default 4).
	Count int `json:"count,omitempty"`
	// Iters is the benchmark iterations per repetition (default 20).
	Iters int `json:"iters,omitempty"`
	// Skew is the per-iteration maximum process skew (default 1ms).
	Skew Duration `json:"skew,omitempty"`
	// Loss is the per-frame drop probability (enables reliable GM).
	Loss float64 `json:"loss,omitempty"`
	// FaultSeed seeds the dedicated fault stream.
	FaultSeed int64 `json:"faultseed,omitempty"`
	// Seed is the base simulation seed; repetition r derives its seed
	// from it (repetition 0 uses it exactly).
	Seed int64 `json:"seed,omitempty"`
	// TopoAware builds hierarchy-aware reduction trees (AB on a routed
	// fabric only).
	TopoAware bool `json:"topoaware,omitempty"`

	// Jobs > 0 switches to the multi-tenant scenario: Jobs concurrent
	// jobs with Poisson arrivals share the fabric, placed by Place,
	// and the primary metric becomes the per-job completion-time p50.
	Jobs int `json:"jobs,omitempty"`
	// Place is the placement policy: "random" (default), "greedy" or
	// "genetic".
	Place string `json:"place,omitempty"`
	// Arrival is the mean Poisson inter-arrival gap (default 50µs).
	Arrival Duration `json:"arrival,omitempty"`

	// RelCI is the convergence target: repetitions continue until the
	// primary metric's CI95 half-width is below RelCI·mean (default
	// 0.05).
	RelCI float64 `json:"relci,omitempty"`
	// MinReps/MaxReps bound the repetition count (defaults 3 and the
	// server's MaxReps, normally 20).
	MinReps int `json:"minreps,omitempty"`
	MaxReps int `json:"maxreps,omitempty"`
}

// The Iters, RelCI and MinReps a spec that leaves them 0 runs with.
const defIters, defRelCI, defMinReps = 20, 0.05, 3

// maxCount bounds Count, the doubles per reduction: 1<<16 elements,
// 512 KiB per buffer. The packet interpreter allocates two such buffers
// per rank (more under split-phase windows), so an unbounded count asks
// for gigabytes and dies out of memory, which no recover catches. The
// largest count any benchmark driver runs is 16384, in the rendezvous
// ablation (bench.AblationRendezvousAB).
const maxCount = 1 << 16

// Limits are the admission bounds Normalize applies, sized to the host.
type Limits struct {
	MaxNodes int // largest accepted cluster (0 = 1<<20)
	MaxReps  int // repetition-budget ceiling and default (0 = 20)
	MaxIters int // per-repetition iteration ceiling (0 = 1000)
}

func (l Limits) withDefaults() Limits {
	if l.MaxNodes <= 0 {
		l.MaxNodes = 1 << 20
	}
	if l.MaxReps <= 0 {
		l.MaxReps = 20
	}
	if l.MaxIters <= 0 {
		l.MaxIters = 1000
	}
	return l
}

// clusterSpecs maps the Cluster field to a node-spec constructor.
func clusterSpecs(name string, n int) ([]model.NodeSpec, error) {
	switch name {
	case "paper":
		return model.PaperCluster(n), nil
	case "uniform":
		return model.Uniform(n), nil
	case "homog700":
		return model.Homogeneous700(n), nil
	case "homog1g":
		return model.Homogeneous1G(n), nil
	}
	return nil, fmt.Errorf("unknown cluster class %q (paper|uniform|homog700|homog1g)", name)
}

// Normalize validates the spec against the server limits and returns
// its canonical form: every default filled in, the topology respelled
// through Norm, mode/engine names validated. Two specs describing the
// same scenario normalize to identical values — the property the
// content-addressed cache keys on. The error text is what a 400
// response carries.
func (s Spec) Normalize(lim Limits) (Spec, error) {
	lim = lim.withDefaults()
	if s.Nodes < 2 {
		return s, fmt.Errorf("nodes must be at least 2 (got %d)", s.Nodes)
	}
	if s.Nodes > lim.MaxNodes {
		return s, fmt.Errorf("nodes %d exceeds the server limit %d", s.Nodes, lim.MaxNodes)
	}
	if s.Cluster == "" {
		s.Cluster = "paper"
	}
	if _, err := clusterSpecs(s.Cluster, 2); err != nil { // class check only; sized later
		return s, err
	}
	if s.Mode == "" {
		s.Mode = "ab"
	}
	algo, err := coll.ParseAlgo(s.Mode)
	if err != nil {
		return s, err
	}
	if s.Topo == "" {
		s.Topo = "crossbar"
	}
	ts, err := topo.ParseSpec(s.Topo) // validates the topology too
	if err != nil {
		return s, err
	}
	s.Topo = ts.Norm().String()
	if s.Engine == "" {
		s.Engine = "packet"
	}
	engine, err := cluster.ParseEngine(s.Engine)
	if err != nil {
		return s, err
	}
	if s.LPs < 0 {
		return s, fmt.Errorf("lps must be non-negative (got %d)", s.LPs)
	}
	if s.LPs == 1 {
		s.LPs = 0 // 0 and 1 both mean monolithic; collapse the spellings
	}
	if s.Count == 0 {
		s.Count = 4
	}
	if s.Count < 1 || s.Count > maxCount {
		return s, fmt.Errorf("count must be in [1, %d] (got %d)", maxCount, s.Count)
	}
	prog := coll.Program{Algo: algo, Count: s.Count}
	if err := prog.FlowRefusal(model.DefaultCosts().EagerThreshold); engine == cluster.EngineFlow && err != nil {
		return s, err
	}
	if s.Iters == 0 {
		s.Iters = defIters
	}
	if s.Iters < 1 || s.Iters > lim.MaxIters {
		return s, fmt.Errorf("iters must be in [1, %d] (got %d)", lim.MaxIters, s.Iters)
	}
	if s.Skew == 0 {
		s.Skew = Duration(time.Millisecond)
	}
	if s.Skew < 0 {
		return s, fmt.Errorf("skew must be non-negative (got %v)", time.Duration(s.Skew))
	}
	if s.Loss < 0 || s.Loss >= 1 {
		return s, fmt.Errorf("loss must be in [0, 1) (got %g)", s.Loss)
	}
	if s.Seed == 0 {
		s.Seed = 20030701
	}
	if s.TopoAware && (ts.Kind == topo.Crossbar || algo != coll.AlgoAB) {
		return s, fmt.Errorf("topoaware needs a routed topo and mode ab")
	}

	if s.Jobs < 0 {
		return s, fmt.Errorf("jobs must be non-negative (got %d)", s.Jobs)
	}
	if s.Jobs > 0 {
		if ts.Kind == topo.Crossbar {
			return s, fmt.Errorf("the tenancy scenario needs a routed topo (jobs %d on a crossbar)", s.Jobs)
		}
		if engine != cluster.EnginePacket {
			return s, fmt.Errorf("the tenancy scenario runs on the packet engine only")
		}
		if s.LPs > 1 || s.TopoAware {
			// workload.Tenancy runs one LP over binomial trees: accepting
			// either knob would ignore it and still key the cache on it.
			return s, fmt.Errorf("the tenancy scenario runs on one LP over binomial trees (no lps or topoaware)")
		}
		if err := workload.TenancyRefusal(algo); err != nil {
			return s, err
		}
		if s.Place == "" {
			s.Place = "random"
		}
		if _, err := workload.ParsePlacement(s.Place); err != nil {
			return s, err
		}
		if s.Arrival == 0 {
			s.Arrival = Duration(50 * time.Microsecond)
		}
		if s.Arrival < 0 {
			return s, fmt.Errorf("arrival must be non-negative (got %v)", time.Duration(s.Arrival))
		}
	} else {
		// Tenancy-only knobs must not differentiate cache keys of
		// non-tenancy scenarios.
		s.Place = ""
		s.Arrival = 0
	}

	if s.RelCI < 0 {
		return s, fmt.Errorf("relci must be non-negative (got %g)", s.RelCI)
	}
	if s.RelCI == 0 {
		s.RelCI = defRelCI
	}
	if s.MinReps < 0 || s.MaxReps < 0 {
		return s, fmt.Errorf("minreps/maxreps must be non-negative")
	}
	if s.MinReps == 0 {
		s.MinReps = defMinReps
	}
	if s.MaxReps == 0 {
		s.MaxReps = lim.MaxReps
	}
	if s.MaxReps > lim.MaxReps {
		return s, fmt.Errorf("maxreps %d exceeds the server limit %d", s.MaxReps, lim.MaxReps)
	}
	if s.MinReps > s.MaxReps {
		return s, fmt.Errorf("minreps %d exceeds maxreps %d", s.MinReps, s.MaxReps)
	}
	return s, nil
}

// Key returns the scenario's content address: the hex SHA-256 of the
// normalized spec's canonical JSON encoding. Call only on a Normalize
// result — raw specs with unapplied defaults would hash differently
// from their canonical twins.
func (s Spec) Key() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic("serve: spec not marshalable: " + err.Error())
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
