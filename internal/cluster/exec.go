package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"abred/internal/coll"
	"abred/internal/core"
	"abred/internal/mpi"
	"abred/internal/sim"
)

// Exec runs prog on every node over the world communicator and returns
// its Outcome and the final virtual time. It is the one place that
// picks the engine: the packet engine runs Node.Exec as each rank's
// simulated process; the flow engine hands the table to the cluster's
// FlowColl, built by the first flow Exec and reused after each Reset
// as a packet node reuses its MPI state. Like Run, Exec refuses a
// second run without a Reset, or one after Close. After each run of a
// flow cluster of hugePageRanks or more, the process's memory is
// advised for transparent huge pages (adviseHugePages); no simulated
// number moves.
//
// The Outcome is the cluster's own, like the FlowColl: every Exec
// clears and refills it, so it and everything it holds (the per-rank
// slices, Results, a flow run's FCT, which is the flow machine's own
// completion-time histogram) are valid until the next Reset. A caller
// that keeps any of it past that copies it.
func (c *Cluster) Exec(prog coll.Program) (*coll.Outcome, sim.Time) {
	c.begin()
	if c.out == nil {
		c.out = coll.NewOutcome(c.Size(), &prog)
	} else {
		c.out.Clear(&prog)
	}
	out := c.out
	if c.Engine == EngineFlow {
		if c.flowColl == nil {
			c.flowColl = coll.NewFlowColl(c.FlowM, c.Size())
		}
		end := c.flowColl.Run(prog, out, c.lpset.Run)
		c.state = ran
		if c.Size() >= hugePageRanks {
			adviseHugePages()
		}
		out.FCT = c.FlowM.FCTs()
		return out, end
	}
	end := c.run(func(n *Node, w *mpi.Comm) { n.Exec(w, &prog, out) })
	return out, end
}

// hugePageRanks is the flow cluster size from which Exec advises the
// process's memory for transparent huge pages after each run. A flow
// rank's state in flight is ~300–400 B, so from 16384 ranks it outgrows
// the ~6 MiB a ~1536-entry second-level TLB reaches in 4 KiB pages (on
// 2 MiB pages, 3 GiB). After a run, not before the first: by then the
// rank slabs, queue chunks and message and flow pools exist and are
// resident to be collapsed. After every run, because what the heap grew
// by since the last pass is a mapping of its own, on 4 KiB pages
// (adviseHugePages skips the pass when nothing was mapped since).
const hugePageRanks = 1 << 14

// Exec runs prog as this node's rank of communicator c — the packet
// interpreter of a coll.Program — and adds the rank's share to out,
// indexed by c.Rank(). StepSpin is Proc.SpinInterruptible, StepReduce
// the program's algorithm, StepBarrier coll.Barrier and StepHalo an
// even/odd neighbour exchange. No virtual time passes between steps, so
// for every rank InCall + Intr is exactly a hand-written loop's elapsed
// time minus its spin budgets.
//
// Under AlgoSplit each reduction posts an IReduce and waits for the one
// posted Window iterations earlier inside the same call; what is still
// outstanding when Body (and again Tail) ends is waited for uncharged.
//
// The step loop is written out here, not in helpers, because every
// frame under it deepens every rank's coroutine stack.
func (n *Node) Exec(c *mpi.Comm, prog *coll.Program, out *coll.Outcome) {
	x := n.newRankExec(c, prog, out)
	p, rank := n.Proc, x.rank
	for it := 0; it <= prog.Iters; it++ {
		steps := prog.Body
		if it == prog.Iters {
			x.drain()
			steps = prog.Tail
		}
		k := 0 // reduction index within the pass
		for i := range steps {
			s := &steps[i]
			switch s.Kind {
			case coll.StepSpin:
				b := s.Budget
				if s.Matrix != nil {
					b += s.Matrix[it][rank]
				}
				out.Intr[rank] += p.SpinInterruptible(b) - b
			case coll.StepHalo:
				x.halo(it)
			case coll.StepReduce:
				binary.LittleEndian.PutUint64(x.in, math.Float64bits(float64(rank+it+k)))
				k++
				t0 := p.Now()
				if prog.Algo == coll.AlgoSplit {
					x.post()
				} else {
					n.Reduce(c, prog.Algo, x.in, x.res, prog.Count, prog.Root)
					x.record(x.res)
				}
				out.InCall[rank] += p.Now() - t0
			case coll.StepBarrier:
				coll.Barrier(c)
			}
		}
	}
	x.drain()
	out.Signals[rank] = n.Engine.Metrics.SignalsHandled - x.sig0
}

// newRankExec installs prog's engine knobs on the node and allocates
// the rank's interpreter state.
func (n *Node) newRankExec(c *mpi.Comm, prog *coll.Program, out *coll.Outcome) *rankExec {
	e := n.Engine
	if prog.Delay != nil {
		e.SetDelayPolicy(prog.Delay)
	}
	if prog.RendezvousAB {
		e.EnableRendezvousAB()
	}
	if prog.Tree != nil {
		e.SetTopoTree(prog.Tree)
	}
	x := &rankExec{nd: n, c: c, prog: prog, out: out, rank: c.Rank(), sig0: e.Metrics.SignalsHandled,
		in: make([]byte, prog.Count*8), res: make([]byte, prog.Count*8)}
	if prog.Algo == coll.AlgoSplit {
		x.lag = prog.Window * coll.Reductions(prog.Body)
		x.ring = make([]future, x.lag+1)
		for i := range x.ring {
			x.ring[i].out = make([]byte, prog.Count*8)
		}
	}
	return x
}

// Reduce runs one blocking reduction of count doubles to root by algo:
// the dispatch the program interpreter and the latency benchmark share.
func (n *Node) Reduce(c *mpi.Comm, algo coll.Algo, in, out []byte, count, root int) {
	switch algo {
	case coll.AlgoBinomial:
		coll.Reduce(c, in, out, count, mpi.Float64, mpi.OpSum, root)
	case coll.AlgoAB:
		n.Engine.Reduce(c, in, out, count, mpi.Float64, mpi.OpSum, root)
	case coll.AlgoNIC:
		n.Engine.NICReduce(c, in, out, count, mpi.Float64, mpi.OpSum, root)
	default:
		panic(fmt.Sprintf("cluster: algorithm %d is not a blocking reduction", algo))
	}
}

// future is one posted split-phase reduction and its result buffer.
type future struct {
	req *core.Request
	out []byte
}

// rankExec is one rank's interpreter state, allocated once per program.
type rankExec struct {
	nd   *Node
	c    *mpi.Comm
	prog *coll.Program
	out  *coll.Outcome
	rank int
	sig0 uint64 // the node's SignalsHandled when the program started

	in, res       []byte
	hsend, hrecv  [coll.HaloBytes]byte
	ring          []future // AlgoSplit: posted reductions, oldest at head
	head, pending int
	lag           int // reductions that may be outstanding after a call
}

// post starts a split-phase reduction of in, then waits for the oldest
// posted ones until no more than lag are outstanding.
func (x *rankExec) post() {
	prog := x.prog
	f := &x.ring[(x.head+x.pending)%len(x.ring)]
	f.req = x.nd.Engine.IReduce(x.c, x.in, f.out, prog.Count, mpi.Float64, mpi.OpSum, prog.Root)
	x.pending++
	for x.pending > x.lag {
		x.harvest()
	}
}

// harvest waits for the oldest posted split-phase reduction.
func (x *rankExec) harvest() {
	f := &x.ring[x.head]
	f.req.Wait()
	f.req = nil
	x.record(f.out)
	x.head = (x.head + 1) % len(x.ring)
	x.pending--
}

// drain waits for every posted split-phase reduction.
func (x *rankExec) drain() {
	for x.pending > 0 {
		x.harvest()
	}
}

// record keeps a finished reduction's result at the root.
func (x *rankExec) record(res []byte) {
	if x.rank == x.prog.Root {
		x.out.Results = append(x.out.Results, math.Float64frombits(binary.LittleEndian.Uint64(res)))
	}
}

// halo swaps a one-byte marker with both neighbours: even ranks send
// first, odd ranks receive first, so eager sends compose without
// deadlock.
func (x *rankExec) halo(it int) {
	tag := int32(1<<16 | it)
	x.hsend[0] = byte(it)
	for phase := range 2 {
		send := phase == x.rank%2
		for _, nb := range [2]int{x.rank - 1, x.rank + 1} {
			switch {
			case nb < 0 || nb >= x.c.Size():
			case send:
				x.c.Send(nb, tag, x.hsend[:])
			default:
				x.c.Recv(nb, tag, x.hrecv[:])
			}
		}
	}
}
