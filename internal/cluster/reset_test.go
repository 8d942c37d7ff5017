package cluster

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"testing"
	"time"

	"abred/internal/coll"
	"abred/internal/fault"
	"abred/internal/model"
	"abred/internal/mpi"
	"abred/internal/sim"
	"abred/internal/topo"
)

// fingerprint runs the skewed AB-reduce workload on c and renders every
// observable outcome — virtual end time, result bytes, event count, and
// per-node NIC/engine/MPI statistics — into one string. Two runs are
// byte-identical iff their fingerprints match. The workload draws a
// kernel RNG stream per rank, so stream numbering across Reset is
// exercised too.
func fingerprint(c *Cluster) string {
	size := len(c.Nodes)
	count := 16
	results := make([][]byte, size)
	end := c.Run(func(n *Node, w *mpi.Comm) {
		rng := c.K.NewRNG()
		in := mpi.Float64sToBytes(rankInput(n.ID, count))
		out := make([]byte, count*8)
		for iter := 0; iter < 3; iter++ {
			skew := sim.Time(rng.Int63n(1000)) * us
			n.Proc.SpinInterruptible(skew)
			n.Engine.Reduce(w, in, out, count, mpi.Float64, mpi.OpSum, 0)
			n.Proc.SpinInterruptible(1500 * us)
			coll.Barrier(w)
		}
		results[n.ID] = out
	})
	s := fmt.Sprintf("end=%d events=%d\n", end, c.K.Events())
	for i, n := range c.Nodes {
		s += fmt.Sprintf("rank%d out=%x nic=%+v eng=%+v mpi=%+v mem=%d\n",
			i, results[i], n.NIC.Stats(), n.Engine.Metrics, n.MPI.Stats,
			n.MPI.Mem.PeakBytes())
	}
	drop, dup := c.Fabric.FaultStats()
	s += fmt.Sprintf("fault drop=%d dup=%d\n", drop, dup)
	return s
}

// TestResetDeterminism proves the tentpole guarantee: a Reset cluster
// replays a config byte-identically to a freshly built one, including
// after runs under other seeds and other fault plans in between.
func TestResetDeterminism(t *testing.T) {
	lossy := fault.Config{Seed: 7, Rule: fault.Rule{Drop: 0.02, Dup: 0.01}}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"clean", Config{Specs: model.PaperCluster(8), Seed: 99}},
		{"lossy", Config{Specs: model.PaperCluster(8), Seed: 99, Fault: lossy}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := New(tc.cfg)
			defer fresh.Close()
			want := fingerprint(fresh)

			reused := New(Config{Specs: tc.cfg.Specs, Seed: 1234})
			defer reused.Close()
			fingerprint(reused) // dirty the cluster under another seed
			for cycle := 0; cycle < 2; cycle++ {
				reused.Reset(tc.cfg)
				if got := fingerprint(reused); got != want {
					t.Fatalf("reset cycle %d diverged from fresh build:\nfresh:\n%s\nreused:\n%s",
						cycle, want, got)
				}
			}
		})
	}
}

// TestResetTogglesFaultPlan flips fault injection on and off across
// Reset cycles on one cluster: the lossy replay must stay identical to a
// fresh lossy build (same retransmissions, same acks), and the clean
// replay must match a fresh clean build (reliability fully quiesced).
// The sequence ends lossy → clean → lossy → lossy: the first lossy
// Reset builds the reliability engine, which is kept from then on; the
// clean one switches it off (relOn), the next lossy one back on, and the
// last one clears it in place. Each of those must leave it exactly as a
// fresh build has it.
func TestResetTogglesFaultPlan(t *testing.T) {
	specs := model.PaperCluster(8)
	clean := Config{Specs: specs, Seed: 5}
	lossy := Config{Specs: specs, Seed: 5,
		Fault: fault.Config{Seed: 11, Rule: fault.Rule{Drop: 0.03}}}

	fc := New(clean)
	defer fc.Close()
	wantClean := fingerprint(fc)
	fl := New(lossy)
	defer fl.Close()
	wantLossy := fingerprint(fl)
	if wantClean == wantLossy {
		t.Fatal("fault plan had no observable effect; test is vacuous")
	}

	c := New(clean)
	defer c.Close()
	for cycle, step := range []struct {
		cfg  Config
		want string
	}{
		{clean, wantClean}, {lossy, wantLossy},
		{clean, wantClean}, {lossy, wantLossy}, {lossy, wantLossy},
	} {
		if cycle > 0 {
			c.Reset(step.cfg)
		}
		if got := fingerprint(c); got != step.want {
			t.Fatalf("toggle cycle %d diverged:\nwant:\n%s\ngot:\n%s",
				cycle, step.want, got)
		}
	}
}

// TestResetShapeMismatchPanics: specs and costs are construction-time
// properties; Reset must refuse rather than silently misconfigure.
func TestResetShapeMismatchPanics(t *testing.T) {
	c := New(Config{Specs: model.Uniform(4), Seed: 1})
	defer c.Close()
	mustPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Reset did not panic", name)
			}
		}()
		c.Reset(cfg)
	}
	mustPanic("size", Config{Specs: model.Uniform(8), Seed: 1})
	mustPanic("spec", Config{Specs: model.PaperCluster(4), Seed: 1})
	costs := model.DefaultCosts()
	costs.HostSendOvh *= 2
	mustPanic("costs", Config{Specs: model.Uniform(4), Seed: 1, Costs: costs})
}

// TestResetRefusesChangedSpecs: node hardware is a construction-time
// property on both engines, even when the caller edits the very slice
// the cluster was built from. A flow cluster once kept that slice and so
// compared it with itself: it accepted the edit and ran node 0 on its
// old cost model.
func TestResetRefusesChangedSpecs(t *testing.T) {
	for _, eng := range []Engine{EnginePacket, EngineFlow} {
		t.Run(eng.String(), func(t *testing.T) {
			cfg := Config{Specs: model.PaperCluster(32), Seed: 1, Engine: eng}
			c := New(cfg)
			defer c.Close()
			c.Reset(cfg)
			cfg.Specs[0] = model.PIII1GPCI64C
			defer func() {
				if r := fmt.Sprint(recover()); r != "cluster: Reset with different spec for node 0" {
					t.Fatalf("Reset after changing node 0's spec: recovered %q", r)
				}
			}()
			c.Reset(cfg)
		})
	}
}

// TestPoolReuse checks the Pool routing contract: same shape reuses the
// same cluster object, different shapes build fresh, and a pooled
// cluster's results stay byte-identical to a fresh build's.
func TestPoolReuse(t *testing.T) {
	p := NewPool()
	defer p.Drain()
	cfgA := Config{Specs: model.Uniform(8), Seed: 3}
	cfgB := Config{Specs: model.PaperCluster(8), Seed: 3}

	fresh := New(cfgA)
	defer fresh.Close()
	want := fingerprint(fresh)

	a1 := p.Get(cfgA)
	got1 := fingerprint(a1)
	p.Put(a1)
	b := p.Get(cfgB) // different shape: must not hand back a1
	if b == a1 {
		t.Fatal("pool returned a cluster of the wrong shape")
	}
	p.Put(b)
	a2 := p.Get(Config{Specs: model.Uniform(8), Seed: 3, Fault: fault.Config{}})
	if a2 != a1 {
		t.Fatal("pool built a new cluster although a matching one was free")
	}
	got2 := fingerprint(a2)
	p.Put(a2)

	if got1 != want || got2 != want {
		t.Fatalf("pooled runs diverged from fresh build:\nfresh:\n%s\nfirst:\n%s\nreused:\n%s",
			want, got1, got2)
	}

	// A nil pool builds fresh on Get and closes on Put: a process left
	// live on its cluster is gone afterwards.
	var none *Pool
	c := none.Get(cfgA)
	if c == a1 {
		t.Fatal("nil pool handed back a pooled cluster")
	}
	if got := fingerprint(c); got != want {
		t.Fatalf("nil-pool run diverged from fresh build:\nfresh:\n%s\ngot:\n%s", want, got)
	}
	c.K.Spawn("leftover", func(*sim.Proc) {})
	none.Put(c)
	if n := c.K.LiveProcs(); n != 0 {
		t.Fatalf("nil pool's Put left %d live procs, want the cluster closed", n)
	}
}

// TestConstructionAllocsPerNode pins the slab win: building a cluster
// must stay within a fixed allocation budget per node. Before the slab
// and shared-cost-table work this was far higher (separate Node, NIC,
// queue rings, cond, daemon and cost table objects per node).
func TestConstructionAllocsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are calibrated without -race instrumentation")
	}
	const size = 256
	specs := model.Uniform(size)
	allocs := testing.AllocsPerRun(3, func() {
		c := New(Config{Specs: specs, Seed: 1})
		c.Close()
	})
	perNode := allocs / size
	t.Logf("construction: %.0f allocs total, %.2f per node", allocs, perNode)
	if perNode > 12 {
		t.Fatalf("construction allocates %.2f objects per node (> 12); slab regression?", perNode)
	}
}

// TestResetAllocsPerNode pins the reuse win: Reset must allocate almost
// nothing per node — only the per-cluster fault-plan rebuild and a few
// fixed-size objects, never O(N) fresh state.
func TestResetAllocsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are calibrated without -race instrumentation")
	}
	const size = 256
	c := New(Config{Specs: model.Uniform(size), Seed: 1})
	defer c.Close()
	c.Run(func(n *Node, w *mpi.Comm) { coll.Barrier(w) })
	specs := c.specs()
	allocs := testing.AllocsPerRun(5, func() {
		c.Reset(Config{Specs: specs, Seed: 2})
	})
	t.Logf("reset: %.0f allocs for %d nodes", allocs, size)
	if allocs > size/4 {
		t.Fatalf("Reset of a %d-node cluster allocates %.0f objects; reuse regression?", size, allocs)
	}

	// The same budget with reliable GM in play: Reset returns the links
	// a run opened to per-NIC free lists, and the rerun contacts the
	// same peers. (That the rerun draws every link from the free list
	// is pinned where links are visible: gm's TestResetReusesLinks.)
	t.Run("lossy", func(t *testing.T) {
		cfg := Config{Specs: specs, Seed: 1,
			Fault: fault.Config{Seed: 3, Rule: fault.Rule{Drop: 0.01}}}
		c := New(cfg)
		defer c.Close()
		first := relPeers(c)
		allocs := testing.AllocsPerRun(5, func() { c.Reset(cfg) })
		t.Logf("lossy reset: %.0f allocs for %d nodes", allocs, size)
		if allocs > size/4 {
			t.Fatalf("lossy Reset of a %d-node cluster allocates %.0f objects; reuse regression?", size, allocs)
		}
		for i, got := range relPeers(c) {
			if got != first[i] || got == 0 {
				t.Fatalf("node %d: RelPeers %d on the rerun, %d on the first run", i, got, first[i])
			}
		}
	})
}

// relPeers runs one reduce + barrier on c and returns every NIC's
// RelPeers: the number of peers it holds reliability state for.
func relPeers(c *Cluster) []uint64 {
	const count = 4
	c.Run(func(n *Node, w *mpi.Comm) {
		in := mpi.Float64sToBytes(rankInput(n.ID, count))
		out := make([]byte, count*8)
		n.Engine.Reduce(w, in, out, count, mpi.Float64, mpi.OpSum, 0)
		coll.Barrier(w)
	})
	peers := make([]uint64, len(c.Nodes))
	for i, n := range c.Nodes {
		peers[i] = n.NIC.Stats().RelPeers
	}
	return peers
}

// lossyFatTree is the shape of the benchmark's lossy cells: the paper's
// heterogeneous cluster on a radix-16 fat tree, two LPs, 0.5 % loss.
func lossyFatTree(size int) Config {
	return Config{Specs: model.PaperCluster(size), Seed: 1, LPs: 2,
		Topo:  topo.Spec{Kind: topo.FatTree, K: 16},
		Fault: fault.Config{Seed: 1, Rule: fault.Rule{Drop: 0.005}}}
}

// TestLossyConstructionBytes: building a lossy cluster costs what
// building a clean one does. Reliable GM keeps link state per contacted
// peer, so construction allocates none; a dense per-NIC table put this
// 4096-node build at 1.43 GB.
func TestLossyConstructionBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are calibrated without -race instrumentation")
	}
	cfg := lossyFatTree(4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	c := New(cfg)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	defer c.Close()
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("lossy %d-node construction: %.1f MB in %v", len(cfg.Specs), float64(bytes)/1e6, wall)
	if bytes > 32<<20 {
		t.Fatalf("lossy %d-node construction allocates %d bytes (> 32 MB); per-NIC state sized by the cluster?",
			len(cfg.Specs), bytes)
	}
}

// TestConstructionBytesPerNode: the heap a just-built cluster keeps, per
// node, on both engines — the number admission control can budget a
// scenario with. Nodes hold 8-byte handles to one cost model per
// hardware class; when every node carried its own ~200-byte copy of the
// constants (a packet node held two at construction, four once a
// program ran), these read 1517 and 524.
func TestConstructionBytesPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("byte ceilings are calibrated without -race instrumentation")
	}
	for _, tc := range []struct {
		eng     Engine
		size    int
		ceiling float64
	}{
		{EnginePacket, 4096, 1250},
		{EngineFlow, 65536, 360},
	} {
		cfg := Config{Specs: model.PaperCluster(tc.size), Seed: 1, Engine: tc.eng,
			Topo: topo.Spec{Kind: topo.FatTree, K: 16}}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := New(cfg)
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		perNode := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(tc.size)
		c.Close()
		t.Logf("%v engine, %d nodes: %.0f B/node", tc.eng, tc.size, perNode)
		if perNode > tc.ceiling {
			t.Errorf("%v engine, %d nodes: construction keeps %.0f B/node (> %.0f); per-node copies of the cost model?",
				tc.eng, tc.size, perNode, tc.ceiling)
		}
	}
}

// TestFlowRetainedBytesPerRank: the heap a pooled flow cluster keeps,
// per rank, once a skewed AB reduction and barrier have run on it — the
// rank state that bounds how many ranks fit on one host. Two GCs on
// each side, so garbage is not counted. When every spin end and signal
// wake was a pooled record of its own, each link carried a closure
// mark, and a rank kept 256 bytes of record plus slices of its own for
// its queues, this read 795 at 65536 ranks; while each Net kept every
// flow's completion time and the machine the host clocks, 440. It
// reads 401.
func TestFlowRetainedBytesPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("byte ceilings are calibrated without -race instrumentation")
	}
	const size = 65536
	skew := [][]sim.Time{make([]sim.Time, size)}
	for r := range skew[0] {
		skew[0][r] = sim.Time(r*2654435761%1000) * us
	}
	prog := coll.Program{Iters: 1, Count: 4, Algo: coll.AlgoAB, Body: []coll.Step{
		{Kind: coll.StepSpin, Matrix: skew}, {Kind: coll.StepReduce},
		{Kind: coll.StepSpin, Budget: 1000*us + coll.LatencyBound(size, 4, 150*us)}, {Kind: coll.StepBarrier},
	}}
	cfg := Config{Specs: model.PaperCluster(size), Seed: 1, Engine: EngineFlow,
		Topo: topo.Spec{Kind: topo.FatTree, K: 16}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	pool := NewPool()
	c := pool.Get(cfg)
	c.Exec(prog)
	pool.Put(c)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRank := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / size
	pool.Drain()
	t.Logf("pooled flow cluster, %d ranks, after one Exec: %.0f B/rank", size, perRank)
	if perRank > 460 {
		t.Errorf("a pooled flow cluster keeps %.0f B/rank after one Exec (> 460); per-rank wake records, queue slices or per-flow records?", perRank)
	}
}

// TestLossyPeerCount: a reduction tree plus a barrier talk to O(log N)
// peers, and reliable GM must hold state for those and no others.
func TestLossyPeerCount(t *testing.T) {
	const size = 1024
	c := New(lossyFatTree(size))
	defer c.Close()
	peers := relPeers(c)
	most := slices.Max(peers)
	var sum uint64
	for _, p := range peers {
		sum += p
	}
	t.Logf("%d nodes: at most %d peers per NIC, %d links in all", size, most, sum)
	if limit := uint64(2 * bits.Len(size-1)); most > limit {
		t.Errorf("a NIC holds link state for %d peers (> 2·log₂N = %d)", most, limit)
	}
	if sum >= 4*size {
		t.Errorf("%d links cluster-wide (≥ 4N = %d)", sum, 4*size)
	}
}

// specs reconstructs the cluster's spec slice for Reset in tests.
func (c *Cluster) specs() []model.NodeSpec {
	s := make([]model.NodeSpec, c.Size())
	for i, cm := range c.cms {
		s[i] = cm.Spec()
	}
	return s
}
