package coll

import (
	"fmt"

	"abred/internal/mpi"
	"abred/internal/sim"
)

// flowPos is one rank's place in the program. start doubles as the
// entry time of the reduction call in progress.
type flowPos struct {
	iter, reds, bars int32
	step             uint16
	halo             uint8 // halo receives completed
	// The spin in progress: a spin of budget b started at t ends at t+b
	// plus the handler time that accrued in the rank's sintr while it
	// ran — handler work displaces a busy loop's cycles (the flow image
	// of Proc.SpinInterruptible).
	start, budget sim.Time
}

// at returns the step p stands on, nil once the program is finished.
func (p *Program) at(pos *flowPos) *Step {
	if int(pos.iter) < p.Iters {
		return &p.Body[pos.step]
	}
	if int(pos.step) < len(p.Tail) {
		return &p.Tail[pos.step]
	}
	return nil
}

// Run executes prog on every rank — the flow interpreter of a Program,
// which it first checks for packet-only knobs (FlowRefusal) — and
// returns what drain returns: the caller's run-to-quiescence (the
// cluster's sim.LPSet.Run). A rank cannot be a simulated process at
// flow scale, so its position in the step table is its whole state; Run
// resets every rank and empties each LP's slabs, keeping their capacity.
// Each rank first pins its eager bounce-buffer pool, the one
// virtual-time charge mpi.NewProcess makes before a packet rank's
// program starts. Run adds each rank's InCall, Intr and Signals to out;
// flows carry no data but the reduction structure is exact, so the root
// appends ExpectedRootSum to out.Results as it leaves each reduction. A
// run that drains with a rank unfinished or not Quiescent panics.
func (fc *FlowColl) Run(prog Program, out *Outcome, drain func() sim.Time) sim.Time {
	if err := prog.FlowRefusal(); err != nil {
		panic(err.Error())
	}
	if prog.Root < 0 || prog.Root >= fc.Size {
		panic(fmt.Sprintf("coll: flow communicator size=%d root=%d", fc.Size, prog.Root))
	}
	fc.prog, fc.bytes = prog, prog.Count*8
	if thr := fc.M.CMs[0].EagerThreshold(); fc.bytes > thr {
		panic(fmt.Sprintf("coll: flow engine models eager reductions only (%d bytes > threshold %d)", fc.bytes, thr))
	}
	fc.out = out
	for i := range fc.lps {
		fc.lps[i].reset()
	}
	// enter touches no other rank before drain delivers messages.
	for r := range fc.ranks {
		fr := &fc.ranks[r]
		*fr = frank{lp: fr.lp, rank: fr.rank}
		cm := fc.M.CMs[r]
		fc.enter(r, fr.hostRun(0, cm.Pin(mpi.EagerPoolBytes(cm))))
	}
	end := drain()
	done := 0
	for r := range fc.ranks {
		if prog.at(&fc.ranks[r].pos) == nil {
			done++
		}
	}
	if done != fc.Size {
		panic(fmt.Sprintf("coll: flow run drained with %d/%d ranks finished", done, fc.Size))
	}
	if err := fc.Quiescent(); err != nil {
		panic("coll: flow run not quiescent: " + err.Error())
	}
	// fc outlives the run: hold neither the caller's program nor its Outcome.
	fc.prog, fc.out = Program{}, nil
	return end
}

// enter starts the step rank stands on at host time t.
func (fc *FlowColl) enter(rank int, t sim.Time) {
	fr := &fc.ranks[rank]
	pos := &fr.pos
	s := fc.prog.at(pos)
	if s == nil {
		return
	}
	switch s.Kind {
	case StepSpin:
		b := s.Budget
		if s.Matrix != nil {
			b += s.Matrix[pos.iter][rank]
		}
		pos.start, pos.budget, fr.sintr = t, b, 0
		fr.hostRun(t, 0)
		fr.lp.wake(t+b, fr)
	case StepHalo:
		// The packet interpreter's order: even ranks send to both
		// neighbours then receive from both, odd ranks receive first.
		// Eager sends hand back at once, so the orders compose without
		// deadlock.
		if rank%2 == 0 {
			t = fc.haloSend(rank, t, mseq(pos.iter))
		}
		pos.halo = 0
		src, _ := fc.haloSrc(rank, 0) // size >= 2: every rank has a neighbour
		fc.recvP2P(rank, t, src, mseq(pos.iter))
	case StepReduce:
		pos.start = t
		pos.reds++
		fc.reduce(rank, t, fc.prog.Algo == AlgoAB, mseq(pos.reds-1))
	case StepBarrier:
		pos.bars++
		fc.barrier(rank, t, mseq(pos.bars-1))
	}
}

// leave ends the step rank stands on at host time t — a spin settled
// or a blocking call returned — and enters the next one.
func (fc *FlowColl) leave(rank int, t sim.Time) {
	pos := &fc.ranks[rank].pos
	switch fc.prog.at(pos).Kind {
	case StepHalo:
		// One halo receive matched: post the next, or finish the
		// exchange with the odd ranks' sends.
		pos.halo++
		if src, ok := fc.haloSrc(rank, pos.halo); ok {
			fc.recvP2P(rank, t, src, mseq(pos.iter))
			return
		}
		if rank%2 == 1 {
			t = fc.haloSend(rank, t, mseq(pos.iter))
		}
	case StepReduce:
		fc.out.InCall[rank] += t - pos.start
		if rank == fc.prog.Root {
			k := int(pos.reds) - 1 - int(pos.iter)*Reductions(fc.prog.Body)
			fc.out.Results = append(fc.out.Results, ExpectedRootSum(fc.Size, int(pos.iter), k))
		}
	}
	pos.step++
	if int(pos.iter) < fc.prog.Iters && int(pos.step) == len(fc.prog.Body) {
		pos.step = 0
		pos.iter++
	}
	fc.enter(rank, t)
}

// spinEnd is the spin-end check: handler time that accrued since the
// spin began moves its end that much later — re-arm until it settles.
// The settled delta is CPU a benchmark's subtraction of the spin budget
// cannot remove, so it is reported per rank.
func (fc *FlowColl) spinEnd(rank int, at sim.Time) {
	fr := &fc.ranks[rank]
	intr := fr.sintr
	if want := fr.pos.start + fr.pos.budget + intr; want > at {
		fr.lp.wake(want, fr)
		return
	}
	fr.hostRun(at, 0)
	fc.out.Intr[rank] += intr
	fc.leave(rank, at)
}

// haloSend posts rank's eager neighbour sends, returning the time the
// host hands back.
func (fc *FlowColl) haloSend(rank int, t sim.Time, tag uint32) sim.Time {
	m, cm, fr := fc.M, fc.M.CMs[rank], &fc.ranks[rank]
	for _, dst := range [2]int{rank - 1, rank + 1} {
		if dst >= 0 && dst < fc.Size {
			t = fr.hostRun(t, cm.HostSendOvh()+cm.HostCopy(HaloBytes))
			m.Send(t, rank, dst, HaloBytes, fc, ptag(fkP2P, false, dst, rank, tag))
		}
	}
	return t
}

// haloSrc returns rank's idx'th halo receive source: left neighbour
// then right, skipping the missing edge of the end ranks.
func (fc *FlowColl) haloSrc(rank int, idx uint8) (int, bool) {
	if rank == 0 {
		idx++
	}
	switch {
	case idx == 0:
		return rank - 1, true
	case idx == 1 && rank < fc.Size-1:
		return rank + 1, true
	}
	return 0, false
}

// recvP2P blocks rank on a point-to-point receive; the step is left
// when it matches.
func (fc *FlowColl) recvP2P(rank int, at sim.Time, src int, tag uint32) {
	fr := &fc.ranks[rank]
	fr.op = fop{kind: opRecv, seq: tag}
	fr.hostRun(at, 0)
	if fc.recvStart(rank, fr, fkP2P, int32(src)) {
		fc.opDone(rank, fr.busy)
	}
}
