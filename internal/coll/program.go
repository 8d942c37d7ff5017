package coll

import (
	"fmt"
	"slices"
	"time"

	"abred/internal/sim"
	"abred/internal/stats"
)

// StepKind names what a rank does in one step of its program.
type StepKind uint8

// Step kinds.
const (
	StepSpin    StepKind = iota // interruptible busy-spin
	StepHalo                    // nearest-neighbour exchange of HaloBytes markers
	StepReduce                  // one reduction call, timed into InCall
	StepBarrier                 // MPICH tree barrier
)

// HaloBytes is the size of a StepHalo marker on both engines.
const HaloBytes = 1

// Step is one step. A StepSpin lasts Budget plus, when Matrix is set,
// Matrix[iteration][rank] (Body steps only: Tail runs after the last
// iteration).
type Step struct {
	Kind   StepKind
	Budget sim.Time
	Matrix [][]sim.Time
}

// Algo names the reduction every StepReduce of a program runs.
type Algo uint8

// Reduction algorithms.
const (
	AlgoBinomial Algo = iota // blocking MPICH binomial reduction
	AlgoAB                   // application-bypass reduction (§V)
	AlgoNIC                  // NIC-based reduction (packet engine only)
	AlgoSplit                // split-phase IReduce harvested Window iterations later (packet engine only)
)

// String returns the algorithm's spec name: nab, ab, nic or split.
func (a Algo) String() string {
	switch a {
	case AlgoBinomial:
		return "nab"
	case AlgoAB:
		return "ab"
	case AlgoNIC:
		return "nic"
	case AlgoSplit:
		return "split"
	}
	return fmt.Sprintf("Algo(%d)", uint8(a))
}

// ParseAlgo parses a reduction name as flags and scenario specs spell
// it — the inverse of String for the three algorithms a benchmark
// drives alone (split-phase exists only inside an application loop).
func ParseAlgo(s string) (Algo, error) {
	for _, a := range []Algo{AlgoBinomial, AlgoAB, AlgoNIC} {
		if s == a.String() {
			return a, nil
		}
	}
	return AlgoBinomial, fmt.Errorf("unknown mode %q (nab|ab|nic)", s)
}

// Program is what every rank of a communicator executes: Body Iters
// times, then Tail once. It is engine-neutral — cluster.Exec interprets
// it on simulated processes (packet engine) or hands it to FlowColl.Run
// (flow engine) — so a benchmark states its measured loop once.
//
// Reduction k of iteration it (k counts the StepReduce steps of one
// Body pass; Tail counts as iteration Iters) reduces Count doubles to
// Root, with element 0 of rank r's contribution r+it+k and the other
// elements 0: ExpectedRootSum is its result.
type Program struct {
	Iters       int
	Body, Tail  []Step
	Root, Count int

	Algo   Algo
	Window int // AlgoSplit: iterations a result may lag before it is waited for

	// Tree, when set, replaces the binomial shape of AlgoAB reductions on
	// the world communicator (core's Engine.SetTopoTree).
	Tree *TopoTree

	// Packet-engine knobs of AlgoAB: the §IV-E exit-delay policy (a
	// core.DelayPolicy; nil exits at once) and the §V-B rendezvous-mode
	// bypass.
	Delay interface {
		Delay(nprocs, count int) sim.Time
	}
	RendezvousAB bool
}

// Outcome is what a run of a Program leaves behind, per rank of the
// communicator it ran on; both interpreters write it.
type Outcome struct {
	InCall  []sim.Time // time inside reduction calls
	Intr    []sim.Time // handler time that landed inside spins
	Signals []uint64   // signal handlers that ran with work

	// Results holds the root's element 0 of every reduction, in
	// instance order.
	Results []float64

	// FCT counts a flow-engine run's flow completion times by value
	// (nil on the packet engine; stats.SummarizeHist summarizes it). It
	// is a histogram the cluster keeps, on any LP count: valid until the
	// cluster's next Exec or Reset, so a caller that keeps the counts
	// past that copies them.
	FCT stats.Hist
}

// NewOutcome sizes an Outcome for prog on a size-rank communicator.
func NewOutcome(size int, prog *Program) *Outcome {
	return &Outcome{
		InCall:  make([]sim.Time, size),
		Intr:    make([]sim.Time, size),
		Signals: make([]uint64, size),
		Results: make([]float64, 0, results(prog)),
	}
}

// Clear readies o for a run of prog on the communicator it was sized
// for, keeping its memory: the per-rank sums zeroed, no results (with
// room for prog's) and no FCT.
func (o *Outcome) Clear(prog *Program) {
	clear(o.InCall)
	clear(o.Intr)
	clear(o.Signals)
	o.Results = slices.Grow(o.Results[:0], results(prog))
	o.FCT = nil
}

// results is how many reductions a run of prog reports.
func results(prog *Program) int {
	return prog.Iters*Reductions(prog.Body) + Reductions(prog.Tail)
}

// Reductions returns how many StepReduce steps one pass over steps runs.
func Reductions(steps []Step) int {
	n := 0
	for _, s := range steps {
		if s.Kind == StepReduce {
			n++
		}
	}
	return n
}

// FlowRefusal names the first field of p the flow engine does not model
// at committed fidelity, nil if it models them all — the one place
// those refusals live. FlowColl.Run panics with it; callers that choose
// what to run ask it first.
func (p *Program) FlowRefusal() error {
	var field string
	switch {
	case p.Algo == AlgoNIC:
		field = "Algo = AlgoNIC"
	case p.Algo == AlgoSplit:
		field = "Algo = AlgoSplit"
	case p.Delay != nil:
		field = "Delay"
	case p.RendezvousAB:
		field = "RendezvousAB"
	default:
		return nil
	}
	return fmt.Errorf("coll: the flow engine does not model Program.%s", field)
}

// ExpectedRootSum returns the exact result of reduction k of iteration
// it over size ranks under Program's input convention: the sum over
// ranks of rank+it+k.
func ExpectedRootSum(size, it, k int) float64 {
	var sum float64
	for r := 0; r < size; r++ {
		sum += float64(r + it + k)
	}
	return sum
}

// LatencyBound is a deliberately generous bound on the latency of one
// reduction of count doubles over size ranks — depth times a per-hop
// cost, plus slack — for sizing the paper's catch-up spin ("a
// conservative estimate of the maximum reduction latency").
func LatencyBound(size, count int, slack sim.Time) sim.Time {
	depth := Depth(size)
	if depth == 0 {
		depth = 1
	}
	perHop := 25*time.Microsecond + time.Duration(count)*100*time.Nanosecond
	return sim.Time(depth)*perHop + slack
}
