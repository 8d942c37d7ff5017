package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"abred/internal/coll"
	"abred/internal/fault"
	"abred/internal/model"
	"abred/internal/mpi"
	"abred/internal/sim"
	"abred/internal/topo"
)

// lpFingerprint is fingerprint for partitioned clusters: the workload's
// per-rank skew is a pure function of (rank, iter) instead of a stream
// drawn from c.K — rank closures execute on per-LP goroutines, so they
// must not share an RNG. Everything observable goes into the string:
// end time, summed event count, result bytes, per-node statistics and
// fabric fault counters.
func lpFingerprint(c *Cluster) string {
	size := len(c.Nodes)
	count := 16
	results := make([][]byte, size)
	end := c.Run(func(n *Node, w *mpi.Comm) {
		in := mpi.Float64sToBytes(rankInput(n.ID, count))
		out := make([]byte, count*8)
		for iter := 0; iter < 3; iter++ {
			skew := sim.Time((n.ID*2654435761+iter*977)%1000) * us
			n.Proc.SpinInterruptible(skew)
			n.Engine.Reduce(w, in, out, count, mpi.Float64, mpi.OpSum, 0)
			n.Proc.SpinInterruptible(1500 * us)
			coll.Barrier(w)
		}
		results[n.ID] = out
	})
	s := fmt.Sprintf("end=%d events=%d lps=%d\n", end, c.Events(), c.LPs)
	for i, n := range c.Nodes {
		s += fmt.Sprintf("rank%d out=%x nic=%+v eng=%+v mpi=%+v mem=%d\n",
			i, results[i], n.NIC.Stats(), n.Engine.Metrics, n.MPI.Stats,
			n.MPI.Mem.PeakBytes())
	}
	drop, dup := c.Fabric.FaultStats()
	s += fmt.Sprintf("fault drop=%d dup=%d\n", drop, dup)
	return s
}

// TestLPDeterminism is the parallel-kernel analogue of
// TestResetDeterminism: for a fixed (seed, faultseed, lps) a partitioned
// run must produce identical results on every execution — across fresh
// builds (each with its own goroutine interleaving), Reset cycles on a
// dirtied cluster, every GOMAXPROCS (which decides how many goroutines
// run the LPs), and correct reductions throughout. Not parallel: it sets
// GOMAXPROCS.
func TestLPDeterminism(t *testing.T) {
	lossy := fault.Config{Seed: 7, Rule: fault.Rule{Drop: 0.02, Dup: 0.01}}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"fattree-clean", Config{Specs: model.PaperCluster(64), Seed: 99,
			Topo: topo.Spec{Kind: topo.FatTree, K: 8}, LPs: 4}},
		{"fattree-lossy", Config{Specs: model.PaperCluster(64), Seed: 99,
			Topo: topo.Spec{Kind: topo.FatTree, K: 8}, LPs: 4, Fault: lossy}},
		{"leafspine-clean", Config{Specs: model.PaperCluster(32), Seed: 99,
			Topo: topo.Spec{Kind: topo.LeafSpine, K: 4}, LPs: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := New(tc.cfg)
			if fresh.LPs < 2 {
				t.Fatalf("cluster built with %d LPs; topology did not partition", fresh.LPs)
			}
			want := lpFingerprint(fresh)
			fresh.Close()

			// Fresh builds: every run is a new set of LP goroutines, so
			// repeated agreement is agreement across interleavings.
			for i := 0; i < 3; i++ {
				c := New(tc.cfg)
				if got := lpFingerprint(c); got != want {
					t.Fatalf("fresh run %d diverged:\nwant:\n%s\ngot:\n%s", i, want, got)
				}
				c.Close()
			}

			// Reset cycles on a cluster dirtied under another seed.
			reused := New(Config{Specs: tc.cfg.Specs, Seed: 1234,
				Topo: tc.cfg.Topo, LPs: tc.cfg.LPs})
			defer reused.Close()
			lpFingerprint(reused)
			for cycle := 0; cycle < 2; cycle++ {
				reused.Reset(tc.cfg)
				if got := lpFingerprint(reused); got != want {
					t.Fatalf("reset cycle %d diverged:\nwant:\n%s\ngot:\n%s", cycle, want, got)
				}
			}

			// Where an LP runs follows GOMAXPROCS: every LP on the caller
			// at 1, striped over two runners at 2, one LP per runner at 4
			// (on a host with the CPUs). It is the same experiment.
			for _, procs := range []int{1, 2, 4} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					c := New(tc.cfg)
					defer c.Close()
					if got := lpFingerprint(c); got != want {
						t.Fatalf("GOMAXPROCS %d diverged:\nwant:\n%s\ngot:\n%s", procs, want, got)
					}
				}()
			}
		})
	}
}

// TestLPReduceCorrect: a partitioned cluster still computes the right
// sums — the windowed kernel reorders nothing observable.
func TestLPReduceCorrect(t *testing.T) {
	const size, count = 64, 8
	c := New(Config{Specs: model.PaperCluster(size), Seed: 3,
		Topo: topo.Spec{Kind: topo.FatTree, K: 8}, LPs: 4})
	defer c.Close()
	want := expectSum(size, count)
	results := make([][]byte, size)
	c.Run(func(n *Node, w *mpi.Comm) {
		in := mpi.Float64sToBytes(rankInput(n.ID, count))
		out := make([]byte, count*8)
		n.Engine.Reduce(w, in, out, count, mpi.Float64, mpi.OpSum, 0)
		coll.Barrier(w)
		results[n.ID] = out
	})
	// Only the root holds the result (internal nodes return early).
	checkResult(t, results[0], want)
}

// TestLPSingleIsMonolithic: LPs 0, 1, and any partition of a crossbar
// must all degenerate to the plain kernel — same object graph behavior,
// byte-identical fingerprints.
func TestLPSingleIsMonolithic(t *testing.T) {
	base := Config{Specs: model.PaperCluster(16), Seed: 42}
	mono := New(base)
	defer mono.Close()
	want := lpFingerprint(mono)

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"lps1", Config{Specs: base.Specs, Seed: 42, LPs: 1}},
		{"crossbar-lps4", Config{Specs: base.Specs, Seed: 42, LPs: 4}},
	} {
		c := New(tc.cfg)
		if c.LPs != 1 {
			t.Errorf("%s: built %d LPs, want degenerate 1", tc.name, c.LPs)
		}
		if got := lpFingerprint(c); got != want {
			t.Errorf("%s diverged from the monolithic build:\nwant:\n%s\ngot:\n%s",
				tc.name, want, got)
		}
		c.Close()
	}
}

// TestPoolLPKeying: the requested LP count is part of a cluster's shape;
// the pool must never satisfy a partitioned request with a monolithic
// cluster or vice versa, while same-LPs requests reuse and replay
// byte-identically.
func TestPoolLPKeying(t *testing.T) {
	p := NewPool()
	defer p.Drain()
	ft := topo.Spec{Kind: topo.FatTree, K: 8}
	cfg4 := Config{Specs: model.PaperCluster(64), Seed: 3, Topo: ft, LPs: 4}
	cfg1 := Config{Specs: model.PaperCluster(64), Seed: 3, Topo: ft}

	fresh := New(cfg4)
	want := lpFingerprint(fresh)
	fresh.Close()

	a1 := p.Get(cfg4)
	got1 := lpFingerprint(a1)
	p.Put(a1)
	m := p.Get(cfg1)
	if m == a1 {
		t.Fatal("pool satisfied a monolithic request with a partitioned cluster")
	}
	p.Put(m)
	a2 := p.Get(cfg4)
	if a2 != a1 {
		t.Fatal("pool built a new cluster although a matching partitioned one was free")
	}
	got2 := lpFingerprint(a2)
	p.Put(a2)

	if got1 != want || got2 != want {
		t.Fatalf("pooled partitioned runs diverged:\nfresh:\n%s\nfirst:\n%s\nreused:\n%s",
			want, got1, got2)
	}
}

// TestLPStatsReset: the window counters describe one use of the cluster,
// so Reset zeroes them where it resets the kernels.
func TestLPStatsReset(t *testing.T) {
	cfg := Config{Specs: model.PaperCluster(64), Seed: 3,
		Topo: topo.Spec{Kind: topo.FatTree, K: 8}, LPs: 4}
	c := New(cfg)
	defer c.Close()
	lpFingerprint(c)
	st := c.lpset.Stats()
	if want := min(c.LPs, runtime.GOMAXPROCS(0), runtime.NumCPU()); st.Windows == 0 || st.Runners != want {
		t.Errorf("after a run: %+v, want some windows on %d runners", st, want)
	}
	c.Reset(cfg)
	if st := c.lpset.Stats(); st != (sim.LPStats{}) {
		t.Errorf("after Reset: %+v, want zero", st)
	}
}
