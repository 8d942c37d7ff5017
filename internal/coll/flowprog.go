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
	// plus the handler time that accrued on the rank's interrupt ledger
	// past mark while it ran — handler work displaces a busy loop's
	// cycles (the flow image of Proc.SpinInterruptible).
	start, budget, mark sim.Time
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
// which it first checks for packet-only knobs (flowRefusal) — and
// returns what drain returns: the caller's run-to-quiescence
// (cluster.Drain). A rank cannot be a simulated process at flow scale,
// so its position in the step table is its whole state. Each rank first
// pins its eager bounce-buffer pool, the one virtual-time charge
// mpi.NewProcess makes before a packet rank's program starts.
// Afterwards InCall holds each rank's time inside reduction calls and
// Intr the handler time that landed inside its spins.
func (fc *FlowColl) Run(prog Program, drain func() sim.Time) sim.Time {
	prog.flowRefusal()
	if prog.Root < 0 || prog.Root >= fc.Size {
		panic(fmt.Sprintf("coll: flow communicator size=%d root=%d", fc.Size, prog.Root))
	}
	fc.prog, fc.bytes = prog, prog.Count*8
	if thr := fc.M.CMs[0].EagerThreshold(); fc.bytes > thr {
		panic(fmt.Sprintf("coll: flow engine models eager reductions only (%d bytes > threshold %d)", fc.bytes, thr))
	}
	fc.InCall = make([]sim.Time, fc.Size)
	fc.Intr = make([]sim.Time, fc.Size)
	for r := 0; r < fc.Size; r++ {
		cm := fc.M.CMs[r]
		fc.enter(r, fc.M.HostRun(r, 0, cm.Pin(mpi.EagerPoolBytes(cm))))
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
	return end
}

// enter starts the step rank stands on at host time t.
func (fc *FlowColl) enter(rank int, t sim.Time) {
	m := fc.M
	pos := &fc.ranks[rank].pos
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
		pos.start, pos.budget, pos.mark = t, b, m.Intr[rank]
		m.HostRun(rank, t, 0)
		m.WakeAt(rank, t+b, fc, ptag(fkSpin, false, rank, 0, 0))
	case StepHalo:
		// The packet interpreter's order: even ranks send to both
		// neighbours then receive from both, odd ranks receive first.
		// Eager sends hand back at once, so the orders compose without
		// deadlock.
		if rank%2 == 0 {
			t = fc.haloSend(rank, t, uint64(pos.iter))
		}
		pos.halo = 0
		src, _ := fc.haloSrc(rank, 0) // size >= 2: every rank has a neighbour
		fc.recvP2P(rank, t, src, uint64(pos.iter))
	case StepReduce:
		pos.start = t
		pos.reds++
		fc.reduce(rank, t, fc.prog.Algo == AlgoAB, uint64(pos.reds-1))
	case StepBarrier:
		pos.bars++
		fc.barrier(rank, t, uint64(pos.bars-1))
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
			fc.recvP2P(rank, t, src, uint64(pos.iter))
			return
		}
		if rank%2 == 1 {
			t = fc.haloSend(rank, t, uint64(pos.iter))
		}
	case StepReduce:
		fc.InCall[rank] += t - pos.start
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
	m := fc.M
	pos := &fc.ranks[rank].pos
	intr := m.Intr[rank] - pos.mark
	if want := pos.start + pos.budget + intr; want > at {
		m.WakeAt(rank, want, fc, ptag(fkSpin, false, rank, 0, 0))
		return
	}
	m.HostRun(rank, at, 0)
	fc.Intr[rank] += intr
	fc.leave(rank, at)
}

// haloSend posts rank's eager neighbour sends, returning the time the
// host hands back.
func (fc *FlowColl) haloSend(rank int, t sim.Time, tag uint64) sim.Time {
	m, cm := fc.M, fc.M.CMs[rank]
	for _, dst := range [2]int{rank - 1, rank + 1} {
		if dst >= 0 && dst < fc.Size {
			t = m.HostRun(rank, t, cm.HostSendOvh()+cm.HostCopy(HaloBytes))
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
func (fc *FlowColl) recvP2P(rank int, at sim.Time, src int, tag uint64) {
	fr := &fc.ranks[rank]
	fr.op = fop{kind: opRecv}
	fc.M.HostRun(rank, at, 0)
	if fc.recvStart(rank, fr, fkP2P, int32(src), mseq(tag), HaloBytes) {
		fc.opDone(rank, fc.M.Busy[rank])
	}
}
