package bench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"abred/internal/cluster"
	"abred/internal/fault"
	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/topo"
	"abred/internal/workload"
)

// flowParConfig is the shared shape of the parallel-flow tests: the
// same 512-node cluster the engine fingerprints pin.
func flowParConfig(spec topo.Spec, mode Mode, lps int) Config {
	cfg := Config{
		Specs:   model.PaperCluster(512),
		Count:   4,
		Mode:    mode,
		MaxSkew: 50000,
		Iters:   10,
		Seed:    20030701,
		Topo:    spec,
		Engine:  cluster.EngineFlow,
		LPs:     lps,
	}
	if mode == AppBypass {
		cfg.TopoAware = true
	}
	return cfg
}

func flowFingerprint(r CPUUtilResult) string {
	return fmt.Sprintf("elapsed=%d avgcpu=%d signals=%d events=%d fctp50=%d fctp99=%d waits=%d wait=%d",
		r.Elapsed, r.AvgCPU, r.Signals, r.Events, r.FCT.P50, r.FCT.P99, r.LinkWaits, r.LinkWait)
}

// TestFlowGoldenFingerprints pins the monolithic flow engine's exact
// output across the LP-partitioning refactor and the heap water-fill:
// the constants were captured from the pre-refactor engine, and any
// drift in solver order, route splitting or accounting shows up here
// before it can silently move a committed benchmark.
func TestFlowGoldenFingerprints(t *testing.T) {
	golden := []struct {
		name string
		spec topo.Spec
		mode Mode
		want string
	}{
		{"crossbar/nab", topo.Spec{}, NonAppBypass,
			"elapsed=7414847 avgcpu=17624 signals=0 events=40900 fctp50=996 fctp99=1120 waits=48 wait=5990"},
		{"crossbar/ab", topo.Spec{}, AppBypass,
			"elapsed=8861738 avgcpu=12894 signals=3725 events=46698 fctp50=996 fctp99=1120 waits=40 wait=5482"},
		{"fattree/nab", topo.Spec{Kind: topo.FatTree, K: 16}, NonAppBypass,
			"elapsed=7701448 avgcpu=18027 signals=0 events=40900 fctp50=996 fctp99=4196 waits=44 wait=5332"},
		{"fattree/ab", topo.Spec{Kind: topo.FatTree, K: 16}, AppBypass,
			"elapsed=9145767 avgcpu=12949 signals=3726 events=46699 fctp50=996 fctp99=4196 waits=44 wait=5952"},
		{"leafspine/nab", topo.Spec{Kind: topo.LeafSpine, K: 32}, NonAppBypass,
			"elapsed=7542598 avgcpu=17713 signals=0 events=40900 fctp50=996 fctp99=2596 waits=48 wait=5990"},
		{"leafspine/ab", topo.Spec{Kind: topo.LeafSpine, K: 32}, AppBypass,
			"elapsed=8981343 avgcpu=12916 signals=3725 events=46698 fctp50=996 fctp99=2596 waits=42 wait=5594"},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			if got := flowFingerprint(CPUUtil(flowParConfig(g.spec, g.mode, 1))); got != g.want {
				t.Errorf("monolithic fingerprint drifted:\n got %s\nwant %s", got, g.want)
			}
		})
	}
}

// TestFlowLPsDeterministic pins the partitioned flow engine's
// reproducibility: for every topology and LP count, a fresh build, a
// second fresh build, a Reset reuse, a warm-pool run and a build under
// each of GOMAXPROCS 1, 2 and 4 (the test is not parallel) must produce
// identical output. The sweep driver is one more input: FlowSweep must
// hand the base Config's LPs to the cluster, so LPs 0 and 1 agree on every
// virtual-time column, and LPs 2 repeats itself while counting the
// stub/grant protocol events a monolithic run never executes.
func TestFlowLPsDeterministic(t *testing.T) {
	topos := []struct {
		name string
		spec topo.Spec
	}{
		{"fattree", topo.Spec{Kind: topo.FatTree, K: 16}},
		{"leafspine", topo.Spec{Kind: topo.LeafSpine, K: 32}},
	}
	for _, tp := range topos {
		for _, lps := range []int{2, 4} {
			tp, lps := tp, lps
			t.Run(fmt.Sprintf("%s/lps%d", tp.name, lps), func(t *testing.T) {
				cfg := flowParConfig(tp.spec, AppBypass, lps)
				fresh := flowFingerprint(CPUUtil(cfg))
				if again := flowFingerprint(CPUUtil(cfg)); again != fresh {
					t.Errorf("fresh rebuild diverged:\n got %s\nwant %s", again, fresh)
				}
				pool := cluster.NewPool()
				defer pool.Drain()
				pcfg := cfg
				pcfg.Pool = pool
				if cold := flowFingerprint(CPUUtil(pcfg)); cold != fresh {
					t.Errorf("pooled (cold) run diverged:\n got %s\nwant %s", cold, fresh)
				}
				// Second acquire hits the warmed cluster via Reset.
				if warm := flowFingerprint(CPUUtil(pcfg)); warm != fresh {
					t.Errorf("pooled (warm Reset) run diverged:\n got %s\nwant %s", warm, fresh)
				}
				// The shards run on however many goroutines GOMAXPROCS
				// allows, the caller's alone at 1; virtual time may not care.
				for _, procs := range []int{1, 2, 4} {
					func() {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						if got := flowFingerprint(CPUUtil(cfg)); got != fresh {
							t.Errorf("GOMAXPROCS %d diverged:\n got %s\nwant %s", procs, got, fresh)
						}
					}()
				}
			})
		}
	}
	t.Run("sweep", func(t *testing.T) {
		run := func(lps int) FlowPoint {
			p := FlowSweep([]int{4096}, sim.Time(time.Millisecond), 4,
				Config{Iters: 2, Seed: 20030701, LPs: lps, Topo: topo.Spec{Kind: topo.FatTree, K: 16}})[0]
			p.WallMS, p.LivePeak = 0, 0 // host-dependent
			return p
		}
		mono := run(0)
		if one := run(1); one != mono {
			t.Errorf("lps=1 diverged from lps=0:\n got %+v\nwant %+v", one, mono)
		}
		two := run(2)
		if again := run(2); again != two {
			t.Errorf("lps=2 repetition diverged:\n got %+v\nwant %+v", again, two)
		}
		if two.Events == mono.Events {
			t.Errorf("lps=2 executed the monolithic event count %d; the base LPs did not reach the cluster", mono.Events)
		}
	})
}

// TestFlowLPsCrossbarClamps pins the clamp: a crossbar has one pod, so
// -engine flow -lps 4 must run monolithic and reproduce the monolithic
// fingerprint bit for bit.
func TestFlowLPsCrossbarClamps(t *testing.T) {
	mono := flowFingerprint(CPUUtil(flowParConfig(topo.Spec{}, AppBypass, 1)))
	if got := flowFingerprint(CPUUtil(flowParConfig(topo.Spec{}, AppBypass, 4))); got != mono {
		t.Errorf("clamped lps=4 crossbar diverged from monolithic:\n got %s\nwant %s", got, mono)
	}
}

// TestSweepsHonourFault pins that the base Config's Fault reaches the cluster from
// the two abscale grids that once dropped it: a lossy flow grid and a
// lossy tenancy grid must differ from their loss-free runs.
func TestSweepsHonourFault(t *testing.T) {
	ft := topo.Spec{Kind: topo.FatTree, K: 4}
	lossy := fault.Config{Seed: 1, Rule: fault.Rule{Drop: 0.05}}
	flowRun := func(f fault.Config) FlowPoint {
		p := FlowSweep([]int{16}, sim.Time(time.Millisecond), 4, Config{Iters: 2, Seed: 7, Fault: f, Topo: ft})[0]
		p.WallMS, p.LivePeak = 0, 0 // host-dependent
		return p
	}
	if clean, got := flowRun(fault.Config{}), flowRun(lossy); got == clean {
		t.Errorf("FlowSweep ignored Fault: %+v", got)
	}
	tenancyRun := func(f fault.Config) TenancyPoint {
		return TenancySweep([]int{2}, []int{1},
			[]workload.Placement{workload.GreedyPlacement{}}, sim.Time(50*time.Microsecond),
			Config{Specs: model.PaperCluster(16), Topo: ft, Count: 64, Iters: 4, Seed: 7, Fault: f}, 1)[0]
	}
	if clean, got := tenancyRun(fault.Config{}), tenancyRun(lossy); got == clean {
		t.Errorf("TenancySweep ignored Fault: %+v", got)
	}
}

// TestFlowSweepMeasures pins the cost columns of a flow point: events
// is the sum of the size's two runs, and wall and live heap are read.
func TestFlowSweepMeasures(t *testing.T) {
	ft := topo.Spec{Kind: topo.FatTree, K: 4}
	base := Config{Iters: 2, Seed: 7, Topo: ft}
	p := FlowSweep([]int{16}, sim.Time(time.Millisecond), 4, base)[0]
	base.Specs, base.Count, base.MaxSkew, base.Engine = model.PaperCluster(16), 4, sim.Time(time.Millisecond), cluster.EngineFlow
	nab, ab := base, base
	nab.Mode, ab.Mode, ab.TopoAware = NonAppBypass, AppBypass, true
	if want := CPUUtil(nab).Events + CPUUtil(ab).Events; p.Events != want {
		t.Errorf("events = %d, want the two runs' sum %d", p.Events, want)
	}
	if p.WallMS <= 0 || p.LivePeak == 0 {
		t.Errorf("cost not recorded: %+v", p)
	}
}

// TestLiveHeapPeak: the sampler times fn and sees a 64 MiB allocation
// that fn holds live across a GC.
func TestLiveHeapPeak(t *testing.T) {
	const size = 64 << 20
	var keep []byte
	wall, peak := liveHeapPeak(func() {
		keep = make([]byte, size)
		runtime.GC()
	})
	runtime.KeepAlive(keep)
	if wall <= 0 || peak < size {
		t.Errorf("wall %v, peak %d bytes; want wall > 0 and peak >= %d", wall, peak, size)
	}
}
