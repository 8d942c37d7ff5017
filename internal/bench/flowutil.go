package bench

import (
	"fmt"

	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/flow"
	"abred/internal/mpi"
	"abred/internal/sim"
	"abred/internal/stats"
)

// flowCPUUtil is the CPU-utilization benchmark on the flow engine: the
// same per-iteration shape as the packet path (skew spin, reduction,
// conservative catch-up spin, barrier), the same pre-generated skew
// matrix from the same RNG stream, and the same CPU accounting — call
// duration plus handler time landing inside the interruptible spins —
// but with every rank a small state machine over the flow machine's
// virtual clocks instead of a simulated process.
func flowCPUUtil(cfg Config) CPUUtilResult {
	size := len(cfg.Specs)
	switch {
	case cfg.Mode == NICBased:
		panic("bench: the flow engine does not model NIC-based reduction")
	case cfg.Delay != nil:
		panic("bench: the flow engine does not model delay policies")
	case cfg.RendezvousAB:
		panic("bench: the flow engine does not model rendezvous AB")
	}
	cl, release := cfg.acquire()
	defer release()
	if cl.Engine != cluster.EngineFlow {
		panic(fmt.Sprintf("bench: flow benchmark on a %v cluster", cl.Engine))
	}
	m := cl.FlowM
	m.SampleFCT(true)

	skews := skewMatrix(cl, cfg)
	catchup := cfg.MaxSkew + estimateLatency(size, cfg.Count)

	fc := coll.NewFlowColl(m, size, cfg.Root, cfg.Count)
	if cfg.TopoAware && cfg.Mode == AppBypass && cl.Topo.Levels() > 1 {
		fc.Tree = coll.NewTopoTree(size, cfg.Root, cl.Topo.Leaf)
	}

	d := &flowDriver{
		fc: fc, m: m,
		skews: skews, catchup: catchup,
		ab:    cfg.Mode == AppBypass,
		iters: cfg.Iters,
		rk:    make([]flowRankState, size),
		cpu:   make([]sim.Time, size),
		fin:   make([]bool, size),
	}
	d.sp = flow.NewSpinner(m, size, d.spinDone)
	fc.Done = d.opDone
	for r := 0; r < size; r++ {
		// Rank startup mirrors mpi.NewProcess: pinning the eager
		// bounce-buffer pool is the one virtual-time charge before the
		// benchmark loop, and it dominates the packet engine's lead-in.
		cm := m.CMs[r]
		t0 := m.HostRun(r, 0, cm.Pin(mpi.EagerPoolBytes(cm)))
		d.startIter(r, t0)
	}
	end := cl.Drain()
	done := 0
	for _, f := range d.fin {
		if f {
			done++
		}
	}
	if done != size {
		panic(fmt.Sprintf("bench: flow run drained with %d/%d ranks finished", done, size))
	}

	perNode := make([]sim.Time, size)
	var total sim.Time
	for r := range perNode {
		perNode[r] = d.cpu[r] / sim.Time(cfg.Iters)
		total += perNode[r]
	}
	var signals uint64
	for _, s := range fc.Signals {
		signals += s
	}
	_, _, delayed, delayTotal := m.NetStats()
	_, _, expRetr := m.Tokens()
	return CPUUtilResult{
		AvgCPU:    total / sim.Time(size),
		PerNode:   perNode,
		Summary:   stats.Summarize(perNode),
		Signals:   signals,
		Events:    cl.Events(),
		Rel:       RelTotals{Retransmits: uint64(expRetr + 0.5)},
		LinkWaits: delayed,
		LinkWait:  delayTotal,
		Elapsed:   end,
		FCT:       stats.Summarize(m.FCTs()),
	}
}

// flowRankState is one rank's position in the benchmark loop.
type flowRankState struct {
	phase     uint8 // 0 skew spin, 1 in reduce, 2 catch-up spin, 3 in barrier
	iter      int32
	callStart sim.Time
}

// flowDriver advances every rank through Iters benchmark iterations.
// Spin segments are modeled by a flow.Spinner (the flow image of
// SpinInterruptible), and the interrupt delta it reports is exactly
// what the packet path's elapsed-minus-delays accounting captures.
type flowDriver struct {
	fc      *coll.FlowColl
	m       *flow.Machine
	sp      *flow.Spinner
	skews   [][]sim.Time
	catchup sim.Time
	ab      bool
	iters   int
	rk      []flowRankState
	cpu     []sim.Time
	// fin is per-rank (not a shared counter) so concurrent LP windows
	// never write the same word; the driver counts it after the drain.
	fin []bool
}

func (d *flowDriver) startIter(r int, t sim.Time) {
	st := &d.rk[r]
	st.phase = 0
	d.sp.Start(r, t, d.skews[st.iter][r])
}

// spinDone receives settled spins: the skew spin flows into the
// reduction, the catch-up spin into the barrier. Interrupt time that
// landed inside a spin is CPU the benchmark's subtraction cannot
// remove, so it accrues to the rank's measured utilization.
func (d *flowDriver) spinDone(r int, at, intr sim.Time) {
	st := &d.rk[r]
	d.cpu[r] += intr
	switch st.phase {
	case 0:
		st.phase = 1
		st.callStart = at
		d.fc.Reduce(r, at, d.ab, uint64(st.iter))
	case 2:
		st.phase = 3
		d.fc.Barrier(r, at, uint64(st.iter))
	default:
		panic(fmt.Sprintf("bench: flow rank %d woke in phase %d", r, st.phase))
	}
}

// opDone receives blocking-call completions from the collective engine.
func (d *flowDriver) opDone(r int, t sim.Time) {
	st := &d.rk[r]
	switch st.phase {
	case 1:
		d.cpu[r] += t - st.callStart
		st.phase = 2
		d.sp.Start(r, t, d.catchup)
	case 3:
		st.iter++
		if int(st.iter) < d.iters {
			d.startIter(r, t)
		} else {
			d.fin[r] = true
		}
	default:
		panic(fmt.Sprintf("bench: flow rank %d completed an op in phase %d", r, st.phase))
	}
}
