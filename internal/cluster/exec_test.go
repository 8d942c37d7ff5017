package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"abred/internal/coll"
	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/topo"
)

// genProgram draws one program for size ranks: a Body permuting one
// spin (budget plus an optional skew matrix), one halo, 1–3 reductions
// and one barrier, 1–4 iterations, an optional Tail, AB or binomial.
// The run must end on a barrier after its last reduction — an AB
// internal rank finishes its outstanding instances in signal handlers,
// which need the process alive — so a Tail ends with one and, without
// a Tail, the Body's barrier moves to the end.
func genProgram(rng *rand.Rand, size int) coll.Program {
	iters := 1 + rng.Intn(4)
	spin := coll.Step{Kind: coll.StepSpin, Budget: sim.Time(rng.Intn(40)) * us}
	if rng.Intn(2) == 0 {
		spin.Matrix = make([][]sim.Time, iters)
		for it := range spin.Matrix {
			spin.Matrix[it] = make([]sim.Time, size)
			for r := range spin.Matrix[it] {
				spin.Matrix[it][r] = sim.Time(rng.Intn(100)) * us
			}
		}
	}
	body := []coll.Step{spin, {Kind: coll.StepHalo}}
	for range 1 + rng.Intn(3) {
		body = append(body, coll.Step{Kind: coll.StepReduce})
	}
	body = append(body, coll.Step{Kind: coll.StepBarrier})
	rng.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })

	var tail []coll.Step
	if rng.Intn(2) == 0 {
		if rng.Intn(2) == 0 {
			tail = append(tail, coll.Step{Kind: coll.StepSpin, Budget: sim.Time(rng.Intn(40)) * us})
		}
		if rng.Intn(2) == 0 {
			tail = append(tail, coll.Step{Kind: coll.StepReduce})
		}
		rng.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
		tail = append(tail, coll.Step{Kind: coll.StepBarrier})
	} else {
		for i, s := range body {
			if s.Kind == coll.StepBarrier {
				body = append(append(body[:i:i], body[i+1:]...), s)
				break
			}
		}
	}
	algo := coll.AlgoBinomial
	if rng.Intn(2) == 0 {
		algo = coll.AlgoAB
	}
	return coll.Program{Iters: iters, Body: body, Tail: tail, Count: 1 + rng.Intn(4), Algo: algo}
}

// wantResults is the root's result sequence of prog over size ranks.
func wantResults(prog *coll.Program, size int) []float64 {
	var want []float64
	for it := 0; it <= prog.Iters; it++ {
		steps := prog.Body
		if it == prog.Iters {
			steps = prog.Tail
		}
		for k := range coll.Reductions(steps) {
			want = append(want, coll.ExpectedRootSum(size, it, k))
		}
	}
	return want
}

// TestGeneratedPrograms runs seeded programs on both engines and checks
// on every draw that every rank finishes and the flow engine ends
// quiescent (Exec panics otherwise: the packet kernel reports a
// deadlock, FlowColl.Run an unfinished or non-quiescent rank), that
// both roots report ExpectedRootSum for every instance in order, and
// that the packet engine ends quiescent.
func TestGeneratedPrograms(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := 2 + rng.Intn(63)
		var ts topo.Spec
		if rng.Intn(2) == 0 {
			ts = topo.Spec{Kind: topo.FatTree, K: 4}
		}
		prog := genProgram(rng, size)
		want := wantResults(&prog, size)

		for _, eng := range []Engine{EnginePacket, EngineFlow} {
			cl := New(Config{Specs: model.PaperCluster(size), Seed: seed, Topo: ts, Engine: eng})
			out, _ := cl.Exec(prog)
			if len(out.Results) != len(want) {
				t.Fatalf("seed %d %v: %d results, want %d (%+v)", seed, eng, len(out.Results), len(want), prog)
			}
			for i := range want {
				if out.Results[i] != want[i] {
					t.Fatalf("seed %d %v: result %d = %v, want %v", seed, eng, i, out.Results[i], want[i])
				}
			}
			for _, n := range cl.Nodes {
				if q, d := n.Engine.UBQLen(), n.Engine.OutstandingDescriptors(); q != 0 || d != 0 {
					t.Errorf("seed %d packet rank %d: %d AB-unexpected, %d descriptors left", seed, n.ID, q, d)
				}
			}
			cl.Close()
		}
	}
}

// The packet interpreter allocates per rank per program, never per
// step: eleven iterations of a program allocate no more than one.
func TestExecAllocsFlatInIters(t *testing.T) {
	for _, algo := range []coll.Algo{coll.AlgoBinomial, coll.AlgoAB} {
		pool := NewPool()
		cfg := Config{Specs: model.Uniform(16), Seed: 1}
		allocs := func(iters int) float64 {
			prog := coll.Program{Iters: iters, Count: 2, Algo: algo, Body: []coll.Step{
				{Kind: coll.StepSpin, Budget: 20 * us}, {Kind: coll.StepHalo},
				{Kind: coll.StepReduce}, {Kind: coll.StepBarrier},
			}}
			return testing.AllocsPerRun(5, func() {
				cl := pool.Get(cfg)
				cl.Exec(prog)
				pool.Put(cl)
			})
		}
		if one, eleven := allocs(1), allocs(11); eleven > one {
			t.Errorf("algo %d: 11 iterations allocate %v, 1 iteration %v", algo, eleven, one)
		}
		pool.Drain()
	}
}

// TestFlowExecReusesRankState: a flow cluster keeps its ranks' state
// across runs, as a packet node keeps its MPI process and AB engine, so
// a second Exec on a pooled cluster allocates its Outcome (24 B per
// rank) and little else, on one LP and on two. Building the rank state
// per Exec read 338–420 B per rank and 4051–8172 mallocs here; gathering
// the shards' flow completion times into a fresh slice per Exec read
// 98.6 B per rank on two LPs. Under -race the runs still go (LP runners
// touch state that outlives the run) but the ceilings are not checked.
func TestFlowExecReusesRankState(t *testing.T) {
	const size, iters = 4096, 2
	skew := make([][]sim.Time, iters)
	for it := range skew {
		skew[it] = make([]sim.Time, size)
		for r := range skew[it] {
			skew[it][r] = sim.Time((r*2654435761+it*977)%500) * us
		}
	}
	for _, lps := range []int{1, 2} {
		for _, algo := range []coll.Algo{coll.AlgoBinomial, coll.AlgoAB} {
			t.Run(fmt.Sprintf("%v_lps%d", algo, lps), func(t *testing.T) {
				prog := coll.Program{Iters: iters, Count: 4, Algo: algo, Body: []coll.Step{
					{Kind: coll.StepSpin, Matrix: skew}, {Kind: coll.StepReduce},
					{Kind: coll.StepSpin, Budget: 1000 * us}, {Kind: coll.StepBarrier},
				}}
				cfg := Config{Specs: model.PaperCluster(size), Seed: 1, Engine: EngineFlow, LPs: lps,
					Topo: topo.Spec{Kind: topo.FatTree, K: 16}}
				pool := NewPool()
				defer pool.Drain()
				cl := pool.Get(cfg)
				cl.Exec(prog)
				pool.Put(cl)
				cl = pool.Get(cfg)
				defer pool.Put(cl)

				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				cl.Exec(prog)
				runtime.ReadMemStats(&after)
				perRank := float64(after.TotalAlloc-before.TotalAlloc) / size
				mallocs := after.Mallocs - before.Mallocs
				t.Logf("second Exec: %.1f B per rank, %d mallocs", perRank, mallocs)
				if raceEnabled {
					return
				}
				if perRank > 32 || mallocs >= 48 {
					t.Errorf("second Exec allocates %.1f B per rank and %d mallocs, want <= 32 and < 48; rank state rebuilt per run?",
						perRank, mallocs)
				}
			})
		}
	}
}
