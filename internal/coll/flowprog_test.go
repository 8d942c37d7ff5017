package coll

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

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

// run runs prog on fc with drain and returns what it wrote.
func run(fc *FlowColl, prog Program, drain func() sim.Time) (*Outcome, sim.Time) {
	out := NewOutcome(fc.Size, &prog)
	end := fc.Run(prog, out, drain)
	return out, end
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
		out, end := run(fc, Program{Iters: 1, Algo: algo, Count: 4, Body: []Step{
			{Kind: StepSpin, Matrix: late},
			{Kind: StepReduce},
			{Kind: StepSpin, Budget: 400 * us},
		}}, k.Run)
		inCall, intr, sig := out.InCall[2], out.Intr[2], out.Signals[2]
		if ab {
			if inCall >= 50*us || intr <= 0 || sig < 1 {
				t.Errorf("ab: rank 2 InCall=%v Intr=%v Signals=%d, want < 50µs, > 0, >= 1", inCall, intr, sig)
			}
			// The displaced spin ends late by exactly the handler time.
			if busy := fc.ranks[2].busy; busy < 400*us+intr || end < busy {
				t.Errorf("ab: rank 2 busy until %v, run ended %v, Intr=%v", busy, end, intr)
			}
		} else if inCall < 250*us || intr != 0 || sig != 0 {
			t.Errorf("nab: rank 2 InCall=%v Intr=%v Signals=%d, want >= 250µs, 0, 0", inCall, intr, sig)
		}
	}
}

// A Body with the halo step finishes on the end-rank, odd and even
// shapes, in both modes (Run panics unless every queue is left empty),
// and the root reports every reduction's sum in instance order.
func TestFlowProgramHalo(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		for _, algo := range []Algo{AlgoBinomial, AlgoAB} {
			k, fc := newFlowWorld(n)
			out, _ := run(fc, Program{Iters: 3, Algo: algo, Count: 4,
				Body: []Step{{Kind: StepSpin, Budget: 10 * us}, {Kind: StepHalo}, {Kind: StepReduce}, {Kind: StepReduce}},
				Tail: []Step{{Kind: StepSpin, Budget: 20 * us}, {Kind: StepBarrier}},
			}, k.Run)
			for r := range fc.ranks {
				if pos := fc.ranks[r].pos; pos.iter != 3 || pos.reds != 6 || pos.bars != 1 {
					t.Errorf("n=%d algo=%d rank %d stopped at %+v", n, algo, r, pos)
				}
			}
			var want []float64
			for it := range 3 {
				want = append(want, ExpectedRootSum(n, it, 0), ExpectedRootSum(n, it, 1))
			}
			if !slices.Equal(out.Results, want) {
				t.Errorf("n=%d algo=%d: root results %v, want %v", n, algo, out.Results, want)
			}
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
	run(fc, Program{Iters: 1, Count: 4, Body: []Step{{Kind: StepSpin, Budget: us}, {Kind: StepReduce}}},
		func() sim.Time { return 0 })
}

// A run whose ranks all finish but leave something behind is a bug in
// the interpreter, and Run says which rank holds what.
func TestFlowRunAssertsQuiescence(t *testing.T) {
	k, fc := newFlowWorld(4)
	defer func() {
		want := "coll: flow run not quiescent: rank 1: 1 messages left in the NIC queue"
		if msg := fmt.Sprint(recover()); msg != want {
			t.Errorf("panic %q, want %q", msg, want)
		}
	}()
	run(fc, Program{Iters: 1, Count: 4, Body: []Step{{Kind: StepReduce}}}, func() sim.Time {
		end := k.Run()
		fr := &fc.ranks[1]
		fr.lp.pkts.push(&fr.nicq, fr.lp.pkts.get(fpkt{kind: fkP2P}))
		return end
	})
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
			run(fc, c.prog, func() sim.Time { return 0 })
		})
	}
}

// FlowRefusal names each knob the flow engine does not model, and a
// Count whose doubles pass the eager threshold: 2048 doubles fill the
// default 16384 bytes exactly, 2049 are one double over.
func TestFlowRefusalTable(t *testing.T) {
	const thr = 16384
	for _, c := range []struct {
		prog Program
		want string // "" = accepted
	}{
		{Program{Algo: AlgoAB, Count: 2048}, ""},
		{Program{Algo: AlgoBinomial, Count: 2048}, ""},
		{Program{Algo: AlgoAB, Count: 2049}, "models eager reductions only (Program.Count = 2049: 16392 bytes > threshold 16384)"},
		{Program{Algo: AlgoBinomial, Count: 4096}, "models eager reductions only (Program.Count = 4096: 32768 bytes > threshold 16384)"},
		{Program{Algo: AlgoNIC, Count: 4}, "does not model Program.Algo = AlgoNIC"},
		{Program{Algo: AlgoSplit, Count: 4, Window: 2}, "does not model Program.Algo = AlgoSplit"},
		{Program{Algo: AlgoAB, Count: 4, Delay: fixedDelay(us)}, "does not model Program.Delay"},
		{Program{Algo: AlgoAB, Count: 4, RendezvousAB: true}, "does not model Program.RendezvousAB"},
	} {
		err := c.prog.FlowRefusal(thr)
		if c.want == "" {
			if err != nil {
				t.Errorf("%v count %d: refused: %v", c.prog.Algo, c.prog.Count, err)
			}
			continue
		}
		if err == nil || err.Error() != "coll: the flow engine "+c.want {
			t.Errorf("%v count %d: err %v, want %q", c.prog.Algo, c.prog.Count, err, c.want)
		}
	}
}

// fixedDelay is a delay policy of one constant (core.FixedDelay, which
// coll cannot import).
type fixedDelay sim.Time

func (d fixedDelay) Delay(int, int) sim.Time { return sim.Time(d) }

// A NIC signal's wake is an event on the rank, never re-armed: when a
// polling pass consumes a raise and a second collective delivery raises
// again before the first wake fires, the first wake runs the handler
// at its own time and the second finds nothing pending. Rank 2 of four
// (binomial, root 0: parent 0, child 3) enters two AB reductions 50 µs
// apart; rank 3's first contribution lands before rank 2's second call
// polls it, and its second lands after, within the signal delay.
func TestFlowSignalWakeServesLaterRaise(t *testing.T) {
	const n, delay = 4, 200 * us
	k := sim.New(1)
	c := model.DefaultCosts()
	c.SignalDelay = delay
	cms := model.SharedCostModels(model.Uniform(n), c)
	fc := NewFlowColl(flow.NewMachines([]*sim.Kernel{k}, nil, nil, cms, c), n)
	fr := &fc.ranks[2]

	// Step the kernel 1 µs at a time, logging rank 2's raise state and
	// handled signals at each window's end.
	type obs struct {
		at      sim.Time
		pending bool
		signals uint64
	}
	var log []obs
	var out *Outcome
	drain := func() sim.Time {
		for h := us; ; h += us {
			k.RunWindow(h)
			if o := (obs{h, fr.sigPend, out.Signals[2]}); len(log) == 0 ||
				o.pending != log[len(log)-1].pending || o.signals != log[len(log)-1].signals {
				log = append(log, o)
			}
			if _, ok := k.NextEventTime(); !ok {
				return k.Now()
			}
		}
	}
	m1 := [][]sim.Time{{0, 0, 0, 20 * us}}
	m2 := [][]sim.Time{{0, 0, 50 * us, 60 * us}}
	prog := Program{Iters: 1, Algo: AlgoAB, Count: 4, Body: []Step{
		{Kind: StepSpin, Matrix: m1}, {Kind: StepReduce},
		{Kind: StepSpin, Matrix: m2}, {Kind: StepReduce},
		{Kind: StepSpin, Budget: 1000 * us},
	}}
	out = NewOutcome(n, &prog)
	fc.Run(prog, out, drain)

	// Raised, consumed by the poll, raised again, then handled. A raise
	// happens as the flow completes, the wake a NIC deposit plus the
	// signal delay later: the first wake, within the 1 µs windows.
	if len(log) != 5 || !log[1].pending || log[2].pending || log[2].signals != 0 ||
		!log[3].pending || log[4].pending || log[4].signals != 1 {
		t.Fatalf("rank 2 signal history %+v, want raise, poll, raise, handle", log)
	}
	cm := cms[2]
	if got, want := log[4].at-log[1].at, cm.NICPkt(32)+delay; got <= want-us || got >= want+us {
		t.Errorf("handler ran %v after the first raise, want %v: the first raise's wake", got, want)
	}
	want := cm.SignalOvh() + cm.PollIter() + cm.QueueSearch(1) + cm.ReduceOp(4, 8) +
		cm.HostSendOvh() + cm.HostCopy(32)
	if out.Signals[2] != 1 || out.Intr[2] != want {
		t.Errorf("rank 2 Signals=%d Intr=%v, want 1 and %v", out.Signals[2], out.Intr[2], want)
	}
}

// A rank's host clock never runs backwards, and handler time lands on
// both the clock and the spin's interrupt accumulator.
func TestHostClockHelpers(t *testing.T) {
	var fr frank
	if got := fr.hostRun(100, 50); got != 150 || fr.busy != 150 {
		t.Fatalf("hostRun = %d busy %d", got, fr.busy)
	}
	// Earlier "at" does not rewind the clock.
	if got := fr.hostRun(0, 10); got != 160 {
		t.Fatalf("hostRun monotonicity: %d", got)
	}
	if got := fr.hostIntr(0, 40); got != 200 || fr.sintr != 40 {
		t.Fatalf("hostIntr = %d sintr %d", got, fr.sintr)
	}
}

// The rank record is what a flow cluster keeps per rank beyond the
// machine's NIC and token state: queue heads into its LP's slabs, the
// op, the program position and the host clocks. It read 256 bytes when
// it held four queue slices and a ChildIter of its own.
func TestFlowRankSize(t *testing.T) {
	if s := unsafe.Sizeof(frank{}); s > 128 {
		t.Errorf("frank is %d bytes, want <= 128", s)
	}
}
