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
	return k, NewFlowColl(m, n)
}

// assertFlowQuiescent: after a run nothing is left queued, posted or
// pending on any rank.
func assertFlowQuiescent(t *testing.T, fc *FlowColl) {
	t.Helper()
	if err := fc.Quiescent(); err != nil {
		t.Error(err)
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
		algo := AlgoBinomial
		if ab {
			algo = AlgoAB
		}
		end := fc.Run(Program{Iters: 1, Algo: algo, Count: 4, Body: []Step{
			{Kind: StepSpin, Matrix: late},
			{Kind: StepReduce},
			{Kind: StepSpin, Budget: 400 * us},
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
		for _, algo := range []Algo{AlgoBinomial, AlgoAB} {
			k, fc := newFlowWorld(n)
			fc.Run(Program{Iters: 3, Algo: algo, Count: 4,
				Body: []Step{{Kind: StepSpin, Budget: 10 * us}, {Kind: StepHalo}, {Kind: StepReduce}, {Kind: StepReduce}},
				Tail: []Step{{Kind: StepSpin, Budget: 20 * us}, {Kind: StepBarrier}},
			}, k.Run)
			for r := range fc.ranks {
				if pos := fc.ranks[r].pos; pos.iter != 3 || pos.reds != 6 || pos.bars != 1 {
					t.Errorf("n=%d algo=%d rank %d stopped at %+v", n, algo, r, pos)
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
	fc.Run(Program{Iters: 1, Count: 4, Body: []Step{{Kind: StepSpin, Budget: us}, {Kind: StepReduce}}},
		func() sim.Time { return 0 })
}

// FlowColl.Run refuses every packet-only knob of a Program before it
// starts, each with the one message naming the field.
func TestFlowRefusals(t *testing.T) {
	body := []Step{{Kind: StepReduce}}
	for _, c := range []struct {
		field string
		prog  Program
	}{
		{"Algo = AlgoNIC", Program{Algo: AlgoNIC}},
		{"Algo = AlgoSplit", Program{Algo: AlgoSplit, Window: 2}},
		{"Delay", Program{Algo: AlgoAB, Delay: fixedDelay(us)}},
		{"RendezvousAB", Program{Algo: AlgoAB, RendezvousAB: true}},
	} {
		t.Run(c.field, func(t *testing.T) {
			_, fc := newFlowWorld(4)
			c.prog.Iters, c.prog.Count, c.prog.Body = 1, 4, body
			defer func() {
				want := "coll: the flow engine does not model Program." + c.field
				if got := fmt.Sprint(recover()); got != want {
					t.Errorf("panic %q, want %q", got, want)
				}
			}()
			fc.Run(c.prog, func() sim.Time { return 0 })
		})
	}
}

// fixedDelay is a delay policy of one constant (core.FixedDelay, which
// coll cannot import).
type fixedDelay sim.Time

func (d fixedDelay) Delay(int, int) sim.Time { return sim.Time(d) }
