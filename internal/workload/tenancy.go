// Multi-tenant workload: a seeded Poisson job-arrival process drives
// concurrent jobs onto one shared cluster. Each job runs the
// bulk-synchronous reduction application on a subset of nodes via a
// sub-communicator, so jobs contend on the real switch ports of the
// shared (possibly oversubscribed) fabric — the cluster the ROADMAP
// north-star describes, as opposed to the paper's dedicated machine.
//
// Determinism layering: every random draw comes from a dedicated,
// purpose-keyed stream derived from (Seed, stream id) — never from the
// kernel RNG — so adding tenancy cannot perturb intra-job packet
// timing, and per-job draws keyed by (Seed, jobID) make each job's
// shape independent of scheduling order. Runs are bit-reproducible per
// (seed, fault seed, placement policy); the fingerprint tests enforce
// this across fresh builds, Reset and warm pool reuse.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/fault"
	"abred/internal/model"
	"abred/internal/mpi"
	"abred/internal/sim"
	"abred/internal/skew"
	"abred/internal/stats"
	"abred/internal/topo"
)

// tenantCompute is a tenant job's baseline compute per iteration.
const tenantCompute = sim.Time(20 * time.Microsecond)

// Stream ids for streamSeed. Per-job streams add the job id, so keep
// the bases far apart (job counts are bounded by the communicator
// context space, ~7k).
const (
	streamShape = 1 << 20 // arrival process and job shapes (one stream)
	streamSkew  = 2 << 20 // + jobID: per-job compute-imbalance draws
	streamPlace = 3 << 20 // + jobID: per-job placement draws
)

// streamSeed derives an independent RNG seed from (seed, id) with a
// splitmix64-style mix, so streams never overlap even for adjacent ids.
func streamSeed(seed int64, id uint64) int64 {
	z := uint64(seed) + id*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// streamRNG returns the RNG of one derived stream.
func streamRNG(seed int64, id uint64) *rand.Rand {
	return rand.New(rand.NewSource(streamSeed(seed, id)))
}

// TenancyConfig describes a multi-tenant run.
type TenancyConfig struct {
	Specs []model.NodeSpec
	Topo  topo.Spec // the shared fabric; oversubscribe it to create contention
	Seed  int64
	Fault fault.Config

	Jobs        int      // number of jobs the arrival process emits
	MeanArrival sim.Time // mean Poisson inter-arrival gap
	MinNodes    int      // per-job node count drawn uniformly from
	MaxNodes    int      //   [MinNodes, MaxNodes]
	Iters       int      // per-job iterations drawn from [max(1,Iters/2), Iters]
	Count       int      // reduction elements per call
	MaxSkew     sim.Time // per-rank imbalance bound per iteration
	Style       Style    // coll.AlgoBinomial or coll.AlgoAB (TenancyRefusal)
	Place       Placement
	Pool        *cluster.Pool // optional warm cluster reuse
}

func (c *TenancyConfig) defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Jobs == 0 {
		c.Jobs = 4
	}
	if c.MeanArrival == 0 {
		c.MeanArrival = sim.Time(300 * time.Microsecond)
	}
	if c.MinNodes == 0 {
		c.MinNodes = 2
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = len(c.Specs) / 2
		if c.MaxNodes < c.MinNodes {
			c.MaxNodes = c.MinNodes
		}
	}
	if c.Iters == 0 {
		c.Iters = 8
	}
	if c.Count == 0 {
		c.Count = 2
	}
	if c.MaxSkew == 0 {
		c.MaxSkew = sim.Time(50 * time.Microsecond)
	}
	if c.Place == nil {
		c.Place = RandomPlacement{}
	}
}

func (c *TenancyConfig) validate() {
	n := len(c.Specs)
	if n < 2 {
		panic("workload: tenancy needs at least two nodes")
	}
	if c.MinNodes < 2 || c.MaxNodes < c.MinNodes || c.MaxNodes > n {
		panic(fmt.Sprintf("workload: job size range [%d,%d] invalid for %d nodes",
			c.MinNodes, c.MaxNodes, n))
	}
	if c.Jobs > 7000 {
		// Each job's sub-communicator consumes one context-id block of
		// the uint16 context space.
		panic(fmt.Sprintf("workload: %d jobs exceed the communicator context space", c.Jobs))
	}
	if err := TenancyRefusal(c.Style); err != nil {
		panic(err.Error())
	}
}

// TenancyRefusal says why a tenant job cannot run algo, nil if it can:
// the tenancy workload compares the binomial and application-bypass
// reductions only. This is the one place that rule lives.
func TenancyRefusal(algo coll.Algo) error {
	if algo == coll.AlgoBinomial || algo == coll.AlgoAB {
		return nil
	}
	return fmt.Errorf("workload: tenancy runs the nab and ab reductions only, not %v", algo)
}

// jobShape is one job as emitted by the arrival process — fully
// determined before the simulation starts, so scheduling can never
// influence what a job is, only when and where it runs.
type jobShape struct {
	arrival sim.Time
	size    int
	prog    coll.Program // what each of its ranks runs
}

// genShapes materializes the arrival process: one shared stream for
// arrival gaps and job dimensions, one (Seed, jobID)-keyed stream per
// job for its skew matrix. A job's program is bench.CPUUtil's measured
// loop on its sub-communicator — compute plus skew, reduction,
// conservative catch-up, barrier — with extra catch-up slack for port
// contention from co-running jobs.
func genShapes(cfg *TenancyConfig) []jobShape {
	rng := streamRNG(cfg.Seed, streamShape)
	shapes := make([]jobShape, cfg.Jobs)
	var clock sim.Time
	for j := range shapes {
		clock += sim.Time(rng.ExpFloat64() * float64(cfg.MeanArrival))
		size := cfg.MinNodes + rng.Intn(cfg.MaxNodes-cfg.MinNodes+1)
		lo := cfg.Iters / 2
		if lo < 1 {
			lo = 1
		}
		iters := lo + rng.Intn(cfg.Iters-lo+1)

		skews := skew.Matrix(skew.Uniform{Max: cfg.MaxSkew}, streamRNG(cfg.Seed, streamSkew+uint64(j)), iters, size)
		shapes[j] = jobShape{arrival: clock, size: size, prog: coll.Program{
			Iters: iters, Count: cfg.Count, Algo: cfg.Style,
			Body: []coll.Step{
				{Kind: coll.StepSpin, Budget: tenantCompute, Matrix: skews},
				{Kind: coll.StepReduce},
				{Kind: coll.StepSpin, Budget: cfg.MaxSkew + coll.LatencyBound(size, cfg.Count, 300*time.Microsecond)},
				{Kind: coll.StepBarrier},
			},
		}}
	}
	return shapes
}

// JobStat is one job's outcome.
type JobStat struct {
	ID      int
	Nodes   []int    // world node ids, ascending (local rank i = Nodes[i])
	Arrival sim.Time // when the arrival process emitted the job
	Start   sim.Time // when placement succeeded and ranks were released
	End     sim.Time // when the last rank finished
	JCT     sim.Time // End - Arrival: queue wait + run time
	AvgCPU  sim.Time // mean per-iteration reduction CPU across ranks
	Iters   int
}

// TenancyResult summarizes a multi-tenant run.
type TenancyResult struct {
	Style    Style
	Jobs     []JobStat
	JCT      stats.Summary // over per-job JCTs
	CPU      stats.Summary // over per-job AvgCPUs
	Makespan sim.Time      // end of the last job
	Events   uint64
	// Fingerprint folds every job record into one hash; the determinism
	// tests compare it across fresh builds, Reset and warm pool reuse.
	Fingerprint uint64
}

// jobRun is one placed job's live scheduler state.
type jobRun struct {
	id       int
	shape    *jobShape
	members  []int
	start    sim.Time
	end      sim.Time
	finished int
	out      *coll.Outcome // per local rank
}

// schedState is the shared scheduler state. The cluster runs on one
// monolithic kernel, so procs access it under cooperative scheduling —
// no locks, but every waiter re-checks its predicate after Wait.
type schedState struct {
	cond     sim.Cond
	free     []int // ascending free node ids
	assign   []*jobRun
	runs     []*jobRun
	done     int
	shutdown bool
}

// Tenancy runs the multi-tenant workload and reports per-job and
// aggregate statistics. The simulation is monolithic (the scheduler's
// condition variable spans all nodes); partitioned execution would need
// cross-LP scheduling, which the tenancy model does not attempt.
func Tenancy(cfg TenancyConfig) TenancyResult {
	cfg.defaults()
	cfg.validate()
	n := len(cfg.Specs)
	ccfg := cluster.Config{Specs: cfg.Specs, Seed: cfg.Seed, Topo: cfg.Topo, Fault: cfg.Fault}
	if err := ccfg.Validate(); err != nil {
		panic(err.Error())
	}
	cl := cfg.Pool.Get(ccfg)
	defer cfg.Pool.Put(cl)

	shapes := genShapes(&cfg)
	st := &schedState{assign: make([]*jobRun, n), free: make([]int, n)}
	st.cond.Init("tenancy")
	for i := range st.free {
		st.free[i] = i
	}

	// The driver is the arrival process plus FCFS queue: emit each job
	// at its arrival time, wait (head-of-line) until enough nodes are
	// free, place it, hand the assignment to the member nodes.
	cl.K.Spawn("tenancy-driver", func(p *sim.Proc) {
		for j := range shapes {
			js := &shapes[j]
			if js.arrival > p.Now() {
				p.Sleep(js.arrival - p.Now())
			}
			for len(st.free) < js.size {
				st.cond.Wait(p)
			}
			placeRNG := streamRNG(cfg.Seed, streamPlace+uint64(j))
			members := cfg.Place.Place(cl.Topo, st.free, js.size, placeRNG)
			st.free = removeAll(st.free, members)
			jr := &jobRun{id: j, shape: js, members: members,
				start: p.Now(), out: coll.NewOutcome(js.size, &js.prog)}
			st.runs = append(st.runs, jr)
			for _, m := range members {
				st.assign[m] = jr
			}
			st.cond.Broadcast()
		}
		for st.done < len(shapes) {
			st.cond.Wait(p)
		}
		st.shutdown = true
		st.cond.Broadcast()
	})

	cl.Run(func(nd *cluster.Node, w *mpi.Comm) {
		for {
			for st.assign[nd.ID] == nil && !st.shutdown {
				st.cond.Wait(nd.Proc)
			}
			jr := st.assign[nd.ID]
			if jr == nil {
				return
			}
			st.assign[nd.ID] = nil
			nd.Exec(mpi.Sub(nd.MPI, jr.members, jr.id), &jr.shape.prog, jr.out)
			jr.finished++
			if jr.finished == len(jr.members) {
				// Last rank out: the trailing barrier of the final
				// iteration guarantees no packet addressed to these
				// nodes is still in flight, so they can be reassigned.
				jr.end = nd.Proc.Now()
				st.free = insertAll(st.free, jr.members)
				st.done++
				st.cond.Broadcast()
			}
		}
	})

	res := TenancyResult{Style: cfg.Style, Events: cl.Events()}
	jcts := make([]sim.Time, len(st.runs))
	cpus := make([]sim.Time, len(st.runs))
	const prime = 1099511628211
	fp := uint64(14695981039346656037)
	mix := func(x uint64) {
		fp ^= x
		fp *= prime
	}
	for i, jr := range st.runs {
		// A rank's reduction CPU is its compute-plus-skew and catch-up
		// spins' elapsed time minus their budgets, plus its call time:
		// handler extension and InCall.
		iters := jr.shape.prog.Iters
		var cpu sim.Time
		for r, c := range jr.out.InCall {
			cpu += (c + jr.out.Intr[r]) / sim.Time(iters)
		}
		cpu /= sim.Time(len(jr.out.InCall))
		stat := JobStat{
			ID: jr.id, Nodes: jr.members,
			Arrival: jr.shape.arrival, Start: jr.start, End: jr.end,
			JCT: jr.end - jr.shape.arrival, AvgCPU: cpu, Iters: iters,
		}
		res.Jobs = append(res.Jobs, stat)
		jcts[i] = stat.JCT
		cpus[i] = cpu
		if jr.end > res.Makespan {
			res.Makespan = jr.end
		}
		mix(uint64(jr.id))
		mix(uint64(stat.Arrival))
		mix(uint64(stat.Start))
		mix(uint64(stat.End))
		mix(uint64(stat.AvgCPU))
		for _, m := range jr.members {
			mix(uint64(m))
		}
	}
	res.JCT = stats.Summarize(jcts)
	res.CPU = stats.Summarize(cpus)
	res.Fingerprint = fp
	return res
}

// removeAll returns free minus members; both ascending.
func removeAll(free, members []int) []int {
	out := free[:0]
	i := 0
	for _, f := range free {
		if i < len(members) && members[i] == f {
			i++
			continue
		}
		out = append(out, f)
	}
	return out
}

// insertAll merges members back into free, keeping ascending order.
func insertAll(free, members []int) []int {
	free = append(free, members...)
	sort.Ints(free)
	return free
}
