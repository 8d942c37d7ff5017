package coll

import (
	"time"

	"abred/internal/sim"
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

// flowRefusal panics on the first field of p the flow engine does not
// model at committed fidelity — the one place those refusals live.
func (p *Program) flowRefusal() {
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
		return
	}
	panic("coll: the flow engine does not model Program." + field)
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
