package coll

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"abred/internal/flow"
	"abred/internal/model"
	"abred/internal/sim"
)

const us = sim.Time(time.Microsecond)

// newFlowWorld builds an n-rank crossbar flow machine on one kernel and
// its collective engine; k.Run is the drain.
func newFlowWorld(n int) (*sim.Kernel, *FlowColl) {
	k := sim.New(1)
	c := model.DefaultCosts()
	m := flow.NewMachines([]*sim.Kernel{k}, nil, nil, model.SharedCostModels(model.Uniform(n), c), c)
	fc := NewFlowColl(m, n, 0, 4)
	fc.P2PBytes = 1
	return k, fc
}

// assertFlowQuiescent is the flow image of gm's assertHome: after a run
// nothing is left queued, posted or pending on any rank.
func assertFlowQuiescent(t *testing.T, fc *FlowColl) {
	t.Helper()
	for r := range fc.ranks {
		fr := &fc.ranks[r]
		if n := len(fr.nicq) - fr.nh; n != 0 {
			t.Errorf("rank %d: %d messages left in the NIC queue", r, n)
		}
		if len(fr.unexp) != 0 || len(fr.abq) != 0 || len(fr.descs) != 0 {
			t.Errorf("rank %d: unexpected=%d ab-unexpected=%d descriptors=%d at quiescence",
				r, len(fr.unexp), len(fr.abq), len(fr.descs))
		}
		if fr.sigPend || fr.op.kind != opNone {
			t.Errorf("rank %d: signal pending=%v, op kind=%d at quiescence", r, fr.sigPend, fr.op.kind)
		}
	}
}

// The paper's Fig. 2 on four flow ranks: rank 3 enters 250 µs late,
// then every rank spins 400 µs. Rank 2 (internal: parent 0, child 3)
// returns at once under application bypass and takes rank 3's
// contribution in a signal handler that lengthens its spin; without
// bypass it sits in the call for the whole delay and no handler runs.
func TestFlowProgramSpinDisplacement(t *testing.T) {
	late := [][]sim.Time{{0, 0, 0, 250 * us}}
	for _, ab := range []bool{true, false} {
		k, fc := newFlowWorld(4)
		end := fc.Run(FlowProgram{Iters: 1, AB: ab, Body: []FlowStep{
			{Kind: FlowSpin, Matrix: late},
			{Kind: FlowReduce},
			{Kind: FlowSpin, Budget: 400 * us},
		}}, k.Run)
		inCall, intr, sig := fc.InCall[2], fc.Intr[2], fc.Signals[2]
		if ab {
			if inCall >= 50*us || intr <= 0 || sig < 1 {
				t.Errorf("ab: rank 2 InCall=%v Intr=%v Signals=%d, want < 50µs, > 0, >= 1", inCall, intr, sig)
			}
			// The displaced spin ends late by exactly the handler time.
			if busy := fc.M.Busy[2]; busy < 400*us+intr || end < busy {
				t.Errorf("ab: rank 2 busy until %v, run ended %v, Intr=%v", busy, end, intr)
			}
		} else if inCall < 250*us || intr != 0 || sig != 0 {
			t.Errorf("nab: rank 2 InCall=%v Intr=%v Signals=%d, want >= 250µs, 0, 0", inCall, intr, sig)
		}
		assertFlowQuiescent(t, fc)
	}
}

// A Body with the halo step finishes on the end-rank, odd and even
// shapes, in both modes, and leaves every queue empty.
func TestFlowProgramHalo(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		for _, ab := range []bool{false, true} {
			k, fc := newFlowWorld(n)
			fc.Run(FlowProgram{Iters: 3, AB: ab,
				Body: []FlowStep{{Kind: FlowSpin, Budget: 10 * us}, {Kind: FlowHalo}, {Kind: FlowReduce}, {Kind: FlowReduce}},
				Tail: []FlowStep{{Kind: FlowSpin, Budget: 20 * us}, {Kind: FlowBarrier}},
			}, k.Run)
			for r := range fc.ranks {
				if pos := fc.ranks[r].pos; pos.iter != 3 || pos.reds != 6 || pos.bars != 1 {
					t.Errorf("n=%d ab=%v rank %d stopped at %+v", n, ab, r, pos)
				}
			}
			assertFlowQuiescent(t, fc)
		}
	}
}

// A drain that returns before the ranks finished is a bug in the
// caller, and Run says how far the ranks got.
func TestFlowProgramUndrainedPanics(t *testing.T) {
	_, fc := newFlowWorld(4)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "0/4 ranks finished") {
			t.Errorf("panic %q does not name the finished ranks", msg)
		}
	}()
	fc.Run(FlowProgram{Iters: 1, Body: []FlowStep{{Kind: FlowSpin, Budget: us}, {Kind: FlowReduce}}},
		func() sim.Time { return 0 })
}
