package workload

import (
	"fmt"

	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/flow"
	"abred/internal/mpi"
	"abred/internal/sim"
	"abred/internal/skew"
	"abred/internal/stats"
)

// flowRun executes the bulk-synchronous application on the flow engine:
// the same per-iteration shape (imbalanced compute spin, optional halo
// exchange, reductions), the same skew matrix from the same RNG stream,
// and the same call-time accounting — but every rank is a small state
// machine over flow-machine clocks instead of a simulated process.
// Split-phase and NIC styles need engine machinery the flow model does
// not carry, and refuse loudly rather than degrade silently.
func flowRun(cfg Config, style Style) Result {
	size := len(cfg.Specs)
	if style != StyleDefault && style != StyleBypass {
		panic(fmt.Sprintf("workload: the flow engine does not model the %v style", style))
	}
	cl := cluster.New(cluster.Config{Specs: cfg.Specs, Seed: cfg.Seed,
		Topo: cfg.Topo, LPs: cfg.LPs, Engine: cluster.EngineFlow})
	defer cl.Close()
	m := cl.FlowM

	delays := skew.Matrix(cfg.Imbalance, cl.K.NewRNG(), cfg.Iters, size)

	fc := coll.NewFlowColl(m, size, 0, cfg.Count)
	fc.P2PBytes = 1 // the halo swaps single-byte markers

	d := &flowApp{
		cfg: cfg, fc: fc, m: m, size: size,
		bypass: style == StyleBypass,
		delays: delays,
		rk:     make([]appRankState, size),
		calls:  make([]sim.Time, size),
		fin:    make([]bool, size),
	}
	d.sp = flow.NewSpinner(m, size, d.spinDone)
	fc.Done = d.opDone
	for r := 0; r < size; r++ {
		// Rank startup mirrors mpi.NewProcess: the eager bounce-buffer
		// pin is the one virtual-time charge before the loop.
		cm := m.CMs[r]
		t0 := m.HostRun(r, 0, cm.Pin(mpi.EagerPoolBytes(cm)))
		d.startIter(r, t0)
	}
	wall := cl.Drain()
	done := 0
	for _, f := range d.fin {
		if f {
			done++
		}
	}
	if done != size {
		panic(fmt.Sprintf("workload: flow run drained with %d/%d ranks finished", done, size))
	}

	// Rank 0's observed results: the flow engine does not carry data,
	// but the reduction structure is exact, so the root sees exactly
	// the analytic sums, in instance order.
	var rootResults []float64
	for it := 0; it < cfg.Iters; it++ {
		for rd := 0; rd < cfg.RedsPerIter; rd++ {
			rootResults = append(rootResults, ExpectedRootSum(size, it, rd))
		}
	}
	var signals uint64
	for _, s := range fc.Signals {
		signals += s
	}
	return Result{
		Style:       style,
		JobTime:     wall,
		ReduceCalls: stats.Summarize(d.calls),
		Signals:     signals,
		RootResults: rootResults,
		Events:      cl.Events(),
	}
}

// appRankState is one rank's position in the application loop.
type appRankState struct {
	phase     uint8 // 0 compute spin, 1 halo, 2 in reduce, 3 final spin, 4 barrier
	iter      int32
	rd        int32
	hstep     uint8 // halo receives completed so far
	callStart sim.Time
}

// flowApp drives every rank through the bulk-synchronous iterations.
type flowApp struct {
	cfg    Config
	fc     *coll.FlowColl
	m      *flow.Machine
	sp     *flow.Spinner
	size   int
	bypass bool
	delays [][]sim.Time
	rk     []appRankState
	calls  []sim.Time
	// fin is per-rank (not a shared counter) so concurrent LP windows
	// never write the same word; the driver counts it after the drain.
	fin []bool
}

func (d *flowApp) startIter(r int, t sim.Time) {
	st := &d.rk[r]
	st.phase = 0
	d.sp.Start(r, t, d.cfg.Compute+d.delays[st.iter][r])
}

func (d *flowApp) spinDone(r int, at, intr sim.Time) {
	st := &d.rk[r]
	switch st.phase {
	case 0:
		if d.cfg.Halo {
			st.phase = 1
			st.hstep = 0
			d.haloStart(r, at)
			return
		}
		d.startReduce(r, at)
	case 3:
		st.phase = 4
		d.fc.Barrier(r, at, 0)
	default:
		panic(fmt.Sprintf("workload: flow rank %d woke in phase %d", r, st.phase))
	}
}

// haloStart mirrors haloExchange: even ranks send to both neighbours
// then receive from both, odd ranks receive first. Eager sends return
// to the application immediately, so the orders compose without
// deadlock exactly as in the packet engine.
func (d *flowApp) haloStart(r int, t sim.Time) {
	st := &d.rk[r]
	if r%2 == 0 {
		t = d.haloSend(r, t)
	}
	st.hstep = 0
	src, _ := d.haloRecvSrc(r, 0) // size >= 2: every rank has a neighbour
	d.fc.RecvP2P(r, t, src, uint64(st.iter))
}

// haloSend posts this rank's neighbour sends, returning the time the
// host hands back.
func (d *flowApp) haloSend(r int, t sim.Time) sim.Time {
	st := &d.rk[r]
	if r > 0 {
		t = d.fc.SendP2P(r, t, r-1, uint64(st.iter))
	}
	if r < d.size-1 {
		t = d.fc.SendP2P(r, t, r+1, uint64(st.iter))
	}
	return t
}

// haloRecvSrc returns the idx'th receive source for rank r: left
// neighbour then right, skipping missing edges.
func (d *flowApp) haloRecvSrc(r int, idx uint8) (int, bool) {
	switch {
	case r > 0 && idx == 0:
		return r - 1, true
	case idx == 0 && d.size > 1: // rank 0: right neighbour only
		return r + 1, true
	case r > 0 && r < d.size-1 && idx == 1:
		return r + 1, true
	}
	return 0, false
}

// haloAdvance runs after each completed receive: post the next one, or
// finish the exchange (odd ranks send after their receives) and move to
// the reductions.
func (d *flowApp) haloAdvance(r int, t sim.Time) {
	st := &d.rk[r]
	st.hstep++
	if src, ok := d.haloRecvSrc(r, st.hstep); ok {
		d.fc.RecvP2P(r, t, src, uint64(st.iter))
		return
	}
	if r%2 == 1 {
		t = d.haloSend(r, t)
	}
	d.startReduce(r, t)
}

func (d *flowApp) startReduce(r int, t sim.Time) {
	st := &d.rk[r]
	st.phase = 2
	st.callStart = t
	seq := uint64(st.iter)*uint64(d.cfg.RedsPerIter) + uint64(st.rd)
	d.fc.Reduce(r, t, d.bypass, seq)
}

// opDone receives blocking-call completions from the collective engine.
func (d *flowApp) opDone(r int, t sim.Time) {
	st := &d.rk[r]
	switch st.phase {
	case 1:
		d.haloAdvance(r, t)
	case 2:
		d.calls[r] += t - st.callStart
		st.rd++
		if int(st.rd) < d.cfg.RedsPerIter {
			d.startReduce(r, t)
			return
		}
		st.rd = 0
		st.iter++
		if int(st.iter) < d.cfg.Iters {
			d.startIter(r, t)
			return
		}
		st.phase = 3
		d.sp.Start(r, t, 2*d.cfg.Compute)
	case 4:
		d.fin[r] = true
	default:
		panic(fmt.Sprintf("workload: flow rank %d completed an op in phase %d", r, st.phase))
	}
}
