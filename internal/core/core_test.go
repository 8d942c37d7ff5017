package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"abred/internal/coll"
	"abred/internal/fabric"
	"abred/internal/gm"
	"abred/internal/model"
	"abred/internal/mpi"
	"abred/internal/sim"
)

const us = time.Microsecond

// ctxRank bundles what a test rank needs.
type ctxRank struct {
	p *sim.Proc
	w *mpi.Comm
	e *Engine
}

// runWorld spawns n ranks with AB engines and runs fn on each.
func runWorld(n int, seed int64, fn func(r *ctxRank)) []*Engine {
	k := sim.New(seed)
	costs := model.DefaultCosts()
	fab := fabric.New(k, n, costs)
	specs := model.Uniform(n)
	nics := make([]*gm.NIC, n)
	for i := 0; i < n; i++ {
		nics[i] = gm.NewNIC(k, i, model.NewCostModel(specs[i], costs), fab)
	}
	engines := make([]*Engine, n)
	for i := 0; i < n; i++ {
		i := i
		k.Spawn("rank", func(p *sim.Proc) {
			pr := mpi.NewProcess(p, i, n, nics[i], model.NewCostModel(specs[i], costs))
			engines[i] = NewEngine(pr)
			fn(&ctxRank{p: p, w: mpi.World(pr), e: engines[i]})
		})
	}
	k.Run()
	return engines
}

func f64s(vals ...float64) []byte { return mpi.Float64sToBytes(vals) }

func sumTo(size int) float64 { return float64(size*(size-1)) / 2 }

// TestReduceABMatchesReference: for random sizes, roots and skews the
// AB result must equal a sequential fold.
func TestReduceABMatchesReference(t *testing.T) {
	f := func(sizeRaw, rootRaw uint8, seed int64, skews [8]uint16) bool {
		size := int(sizeRaw%31) + 1
		root := int(rootRaw) % size
		count := 2
		var got []float64
		runWorld(size, seed, func(r *ctxRank) {
			skew := sim.Time(skews[r.w.Rank()%len(skews)]%2000) * us
			r.p.SpinInterruptible(skew)
			out := make([]byte, count*8)
			in := f64s(float64(r.w.Rank()), float64(r.w.Rank()*3))
			r.e.Reduce(r.w, in, out, count, mpi.Float64, mpi.OpSum, root)
			r.p.SpinInterruptible(3000 * us)
			coll.Barrier(r.w)
			if r.w.Rank() == root {
				got = mpi.BytesToFloat64s(out)
			}
		})
		return got[0] == sumTo(size) && got[1] == 3*sumTo(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestEarlyMessages forces children to arrive before the parent calls
// Reduce (§IV-C): the payloads must be buffered in the engine's own
// unexpected queue and consumed from it.
func TestEarlyMessages(t *testing.T) {
	size := 4 // node 2 is internal with child 3
	engines := runWorld(size, 1, func(r *ctxRank) {
		out := make([]byte, 8)
		switch r.w.Rank() {
		case 1:
			// Unrelated traffic that makes node 2 run progress while
			// node 3's collective packet is already waiting.
			r.p.SpinInterruptible(300 * us)
			r.w.Send(2, 42, []byte{1})
		case 2:
			r.p.SpinInterruptible(200 * us)
			r.w.Recv(1, 42, make([]byte, 1)) // progress buffers child 3's packet
			if r.e.UBQLen() == 0 {
				t.Error("child 3's early packet did not land in the AB unexpected queue")
			}
			r.p.SpinInterruptible(200 * us)
		}
		r.e.Reduce(r.w, f64s(float64(r.w.Rank())), out, 1, mpi.Float64, mpi.OpSum, 0)
		r.p.SpinInterruptible(1000 * us)
		coll.Barrier(r.w)
		if r.w.Rank() == 0 && mpi.BytesToFloat64s(out)[0] != 6 {
			t.Errorf("root got %v, want 6", mpi.BytesToFloat64s(out))
		}
	})
	m := engines[2].Metrics
	if m.EarlyMessages == 0 {
		t.Errorf("node 2 consumed no early messages: %+v", m)
	}
	if m.ABUnexpected == 0 {
		t.Errorf("node 2 queued no AB-unexpected messages: %+v", m)
	}
	if m.ABCopies != m.ABUnexpected {
		t.Errorf("early messages must cost exactly one copy each: copies=%d queued=%d", m.ABCopies, m.ABUnexpected)
	}
}

// TestLateMessagesProcessedAsync: a late child's contribution must be
// handled by the asynchronous component without the parent re-entering
// MPI (§IV-D).
func TestLateMessagesProcessedAsync(t *testing.T) {
	size := 4
	engines := runWorld(size, 2, func(r *ctxRank) {
		if r.w.Rank() == 3 {
			r.p.SpinInterruptible(400 * us)
		}
		out := make([]byte, 8)
		r.e.Reduce(r.w, f64s(1), out, 1, mpi.Float64, mpi.OpSum, 0)
		// Compute only — the async handler must do the rest.
		r.p.SpinInterruptible(2000 * us)
		coll.Barrier(r.w)
	})
	m := engines[2].Metrics
	if m.AsyncChildren == 0 || m.SignalsHandled == 0 {
		t.Errorf("node 2 should have processed its late child asynchronously: %+v", m)
	}
	if m.ZeroCopyChildren != m.SyncChildren+m.AsyncChildren {
		t.Errorf("expected/late children must be zero-copy: %+v", m)
	}
}

// TestCopySavings verifies the paper's §V-B/§V-C claims: expected and
// late AB messages cost zero host copies (100% saving vs the default's
// one), unexpected AB messages cost one (50% saving vs two).
func TestCopySavings(t *testing.T) {
	size := 8
	run := func(ab bool) uint64 {
		var copies uint64
		runWorld(size, 3, func(r *ctxRank) {
			if r.w.Rank()%3 == 1 {
				r.p.SpinInterruptible(sim.Time(r.w.Rank()) * 100 * us)
			}
			out := make([]byte, 32)
			in := f64s(1, 2, 3, 4)
			for i := 0; i < 10; i++ {
				if ab {
					r.e.Reduce(r.w, in, out, 4, mpi.Float64, mpi.OpSum, 0)
				} else {
					coll.Reduce(r.w, in, out, 4, mpi.Float64, mpi.OpSum, 0)
				}
			}
			r.p.SpinInterruptible(3000 * us)
			coll.Barrier(r.w)
			if r.w.Rank() == 2 { // internal node with a subtree
				copies = r.w.Proc().Stats.HostCopies
			}
		})
		return copies
	}
	nab := run(false)
	ab := run(true)
	if ab >= nab {
		t.Errorf("AB path must perform fewer host copies: ab=%d nab=%d", ab, nab)
	}
}

// TestBackToBackDescriptorMatching reproduces §IV-D's scenario: process
// six consistently late, several reductions outstanding, and each late
// message must land in the right instance.
func TestBackToBackDescriptorMatching(t *testing.T) {
	size := 8
	const rounds = 10
	roots := make([][]float64, rounds)
	engines := runWorld(size, 4, func(r *ctxRank) {
		out := make([]byte, 8)
		for iter := 0; iter < rounds; iter++ {
			if r.w.Rank() == 6 {
				r.p.SpinInterruptible(300 * us)
			}
			r.e.Reduce(r.w, f64s(float64(r.w.Rank()*(iter+1))), out, 1, mpi.Float64, mpi.OpSum, 0)
			if r.w.Rank() == 0 {
				roots[iter] = mpi.BytesToFloat64s(out)
			}
		}
		r.p.SpinInterruptible(5000 * us)
		coll.Barrier(r.w)
	})
	for iter := 0; iter < rounds; iter++ {
		want := sumTo(size) * float64(iter+1)
		if roots[iter][0] != want {
			t.Errorf("round %d: root got %v, want %v", iter, roots[iter][0], want)
		}
	}
	if peak := engines[4].Metrics.DescQueuePeak; peak < 2 {
		t.Errorf("node 4 (parent of 6) should have held overlapping descriptors, peak=%d", peak)
	}
}

// TestSignalDiscipline: signals enabled iff descriptors outstanding.
func TestSignalDiscipline(t *testing.T) {
	size := 4
	runWorld(size, 5, func(r *ctxRank) {
		nic := r.w.Proc().NIC()
		if nic.SignalsEnabled() {
			t.Errorf("rank %d: signals enabled before any reduction", r.w.Rank())
		}
		if r.w.Rank() == 3 {
			r.p.SpinInterruptible(400 * us)
		}
		out := make([]byte, 8)
		r.e.Reduce(r.w, f64s(1), out, 1, mpi.Float64, mpi.OpSum, 0)
		if r.w.Rank() == 2 && r.e.OutstandingDescriptors() > 0 && !nic.SignalsEnabled() {
			t.Error("rank 2 exited Reduce with pending children but signals disabled")
		}
		r.p.SpinInterruptible(2000 * us)
		coll.Barrier(r.w)
		if nic.SignalsEnabled() {
			t.Errorf("rank %d: signals still enabled after quiescence", r.w.Rank())
		}
	})
}

// TestExitDelayCatchesStragglers: with the §IV-E heuristic, a slightly
// late child completes inside MPI_Reduce and no signal fires.
func TestExitDelayCatchesStragglers(t *testing.T) {
	size := 4
	run := func(delay DelayPolicy) Metrics {
		engines := runWorld(size, 6, func(r *ctxRank) {
			r.e.SetDelayPolicy(delay)
			if r.w.Rank() == 3 {
				r.p.SpinInterruptible(20 * us) // barely late
			}
			out := make([]byte, 8)
			r.e.Reduce(r.w, f64s(1), out, 1, mpi.Float64, mpi.OpSum, 0)
			r.p.SpinInterruptible(1000 * us)
			coll.Barrier(r.w)
		})
		return engines[2].Metrics
	}
	noDelay := run(NoDelay{})
	withDelay := run(FixedDelay{D: 80 * us})
	if withDelay.SignalsHandled >= noDelay.SignalsHandled && noDelay.SignalsHandled > 0 {
		t.Errorf("delay should reduce signals: with=%d without=%d",
			withDelay.SignalsHandled, noDelay.SignalsHandled)
	}
	if withDelay.SyncChildren == 0 {
		t.Errorf("delay should catch the straggler synchronously: %+v", withDelay)
	}
}

// TestProcCountDelayPolicy checks the paper's process-count heuristic.
func TestProcCountDelayPolicy(t *testing.T) {
	p := ProcCountDelay{Base: 2 * us, PerProc: 1 * us, Max: 10 * us}
	if d := p.Delay(4, 1); d != 6*us {
		t.Errorf("Delay(4) = %v, want 6µs", d)
	}
	if d := p.Delay(100, 1); d != 10*us {
		t.Errorf("Delay(100) = %v, want cap 10µs", d)
	}
	if (NoDelay{}).Delay(32, 128) != 0 {
		t.Error("NoDelay must be zero")
	}
	if (FixedDelay{D: 7 * us}).Delay(1, 1) != 7*us {
		t.Error("FixedDelay wrong")
	}
}

// TestIReduceRootBypass: with the split-phase form the root returns
// immediately and collects the result via Wait (§II).
func TestIReduceRootBypass(t *testing.T) {
	size := 8
	runWorld(size, 7, func(r *ctxRank) {
		if r.w.Rank() != 0 {
			r.p.SpinInterruptible(sim.Time(r.w.Rank()) * 50 * us)
		}
		out := make([]byte, 8)
		t0 := r.p.Now()
		req := r.e.IReduce(r.w, f64s(float64(r.w.Rank())), out, 1, mpi.Float64, mpi.OpSum, 0)
		inCall := r.p.Now() - t0
		if r.w.Rank() == 0 {
			if inCall > 100*us {
				t.Errorf("split-phase root blocked %v in IReduce", inCall)
			}
			// Overlap computation with the whole reduction.
			r.p.SpinInterruptible(1000 * us)
			req.Wait()
			if got := mpi.BytesToFloat64s(out)[0]; got != sumTo(size) {
				t.Errorf("IReduce result = %v, want %v", got, sumTo(size))
			}
		} else {
			r.p.SpinInterruptible(1500 * us)
			req.Wait()
		}
		coll.Barrier(r.w)
	})
}

// TestIReduceManyOutstanding posts a window of split-phase reductions
// before waiting on any — the monitoring pattern of the dotsolver
// example — and checks every instance.
func TestIReduceManyOutstanding(t *testing.T) {
	size := 8
	const window = 12
	var results [window]float64
	runWorld(size, 8, func(r *ctxRank) {
		reqs := make([]*Request, window)
		outs := make([][]byte, window)
		for i := 0; i < window; i++ {
			if r.w.Rank()%2 == 1 {
				r.p.SpinInterruptible(sim.Time(i) * 13 * us)
			}
			outs[i] = make([]byte, 8)
			reqs[i] = r.e.IReduce(r.w, f64s(float64(r.w.Rank()+i)), outs[i], 1, mpi.Float64, mpi.OpSum, 0)
		}
		for i, req := range reqs {
			req.Wait()
			if r.w.Rank() == 0 {
				results[i] = mpi.BytesToFloat64s(outs[i])[0]
			}
		}
		r.p.SpinInterruptible(2000 * us)
		coll.Barrier(r.w)
	})
	for i := 0; i < window; i++ {
		want := sumTo(size) + float64(i*size)
		if results[i] != want {
			t.Errorf("instance %d = %v, want %v", i, results[i], want)
		}
	}
}

// TestBcastABCorrect checks values for every root under skew.
func TestBcastABCorrect(t *testing.T) {
	size := 8
	for root := 0; root < size; root++ {
		root := root
		got := make([][]float64, size)
		runWorld(size, int64(root+10), func(r *ctxRank) {
			if r.w.Rank() == (root+2)%size {
				r.p.SpinInterruptible(300 * us)
			}
			buf := make([]byte, 16)
			if r.w.Rank() == root {
				copy(buf, f64s(3.25, float64(root)))
			}
			r.e.Bcast(r.w, buf, 2, mpi.Float64, root)
			got[r.w.Rank()] = mpi.BytesToFloat64s(buf)
			r.p.SpinInterruptible(1000 * us)
			coll.Barrier(r.w)
		})
		for rk := 0; rk < size; rk++ {
			if got[rk][0] != 3.25 || got[rk][1] != float64(root) {
				t.Fatalf("root %d rank %d got %v", root, rk, got[rk])
			}
		}
	}
}

// TestBcastABForwardsBeforeLocalCall: the whole point of AB broadcast —
// a late internal node's subtree receives the payload while the late
// node is still computing (needs a warm-up broadcast to enable
// signals).
func TestBcastABForwardsBeforeLocalCall(t *testing.T) {
	size := 8 // tree at root 0: node 4 has children 5, 6
	var leafGotAt, lateCalledAt sim.Time
	engines := runWorld(size, 11, func(r *ctxRank) {
		buf := make([]byte, 8)
		// Warm-up broadcast so every engine has signals armed.
		r.e.Bcast(r.w, buf, 1, mpi.Float64, 0)
		coll.Barrier(r.w)

		if r.w.Rank() == 4 {
			r.p.SpinInterruptible(500 * us) // late internal node
		}
		if r.w.Rank() == 0 {
			copy(buf, f64s(9))
		}
		before := r.p.Now()
		r.e.Bcast(r.w, buf, 1, mpi.Float64, 0)
		switch r.w.Rank() {
		case 4:
			lateCalledAt = before
		case 5:
			if mpi.BytesToFloat64s(buf)[0] != 9 {
				t.Error("leaf got wrong payload")
			}
			leafGotAt = r.p.Now()
		}
		r.p.SpinInterruptible(1500 * us)
		coll.Barrier(r.w)
	})
	if leafGotAt >= lateCalledAt {
		t.Errorf("leaf 5 received at %v, after its late parent called Bcast at %v — no bypass happened",
			leafGotAt, lateCalledAt)
	}
	if engines[4].Metrics.BcastForwards == 0 {
		t.Error("late internal node recorded no asynchronous forwards")
	}
}

// TestNICReduceCorrect checks the NIC-based extension across sizes,
// roots and operators.
func TestNICReduceCorrect(t *testing.T) {
	for _, size := range []int{2, 5, 8, 16} {
		for _, root := range []int{0, size - 1} {
			size, root := size, root
			var got float64
			runWorld(size, int64(size*7+root), func(r *ctxRank) {
				if r.w.Rank()%3 == 0 {
					r.p.SpinInterruptible(sim.Time(r.w.Rank()) * 40 * us)
				}
				out := make([]byte, 8)
				r.e.NICReduce(r.w, f64s(float64(r.w.Rank())), out, 1, mpi.Float64, mpi.OpSum, root)
				if r.w.Rank() == root {
					got = mpi.BytesToFloat64s(out)[0]
				}
				r.p.SpinInterruptible(2000 * us)
				coll.Barrier(r.w)
			})
			if got != sumTo(size) {
				t.Errorf("size=%d root=%d: NIC reduce = %v, want %v", size, root, got, sumTo(size))
			}
		}
	}
}

// TestNICReduceBypassesHost: non-root ranks return from NICReduce
// without ever blocking, even with the whole subtree missing.
func TestNICReduceBypassesHost(t *testing.T) {
	size := 8
	engines := runWorld(size, 13, func(r *ctxRank) {
		if r.w.Rank() == 7 {
			r.p.SpinInterruptible(600 * us)
		}
		out := make([]byte, 8)
		t0 := r.p.Now()
		r.e.NICReduce(r.w, f64s(1), out, 1, mpi.Float64, mpi.OpSum, 0)
		inCall := r.p.Now() - t0
		if r.w.Rank() != 0 && inCall > 50*us {
			t.Errorf("rank %d blocked %v in NICReduce", r.w.Rank(), inCall)
		}
		r.p.SpinInterruptible(2000 * us)
		coll.Barrier(r.w)
	})
	if engines[2].Metrics.NICReductions != 1 {
		t.Errorf("NICReductions = %d, want 1", engines[2].Metrics.NICReductions)
	}
}

// TestSizeFallback: messages beyond the eager limit take the default
// path on every rank (§V-B).
func TestSizeFallback(t *testing.T) {
	size := 4
	count := 4096 // 32 KiB
	engines := runWorld(size, 14, func(r *ctxRank) {
		in := make([]byte, count*8)
		out := make([]byte, count*8)
		copy(in, f64s(float64(r.w.Rank()+1)))
		r.e.Reduce(r.w, in, out, count, mpi.Float64, mpi.OpSum, 0)
		if r.w.Rank() == 0 {
			if got := mpi.BytesToFloat64s(out)[0]; got != 10 {
				t.Errorf("fallback reduce wrong: %v", got)
			}
		}
	})
	for i, e := range engines {
		if e.Metrics.SizeFallbacks != 1 {
			t.Errorf("rank %d fallbacks = %d, want 1", i, e.Metrics.SizeFallbacks)
		}
		if e.Metrics.ABReductions != 0 {
			t.Errorf("rank %d ran AB mode on a rendezvous-size message", i)
		}
	}
}

// TestMixedBlockingAndSplitPhase interleaves Reduce and IReduce to
// check that the separate contexts keep instances apart.
func TestMixedBlockingAndSplitPhase(t *testing.T) {
	size := 8
	var blockSum, splitSum float64
	runWorld(size, 15, func(r *ctxRank) {
		if r.w.Rank() == 6 {
			r.p.SpinInterruptible(200 * us)
		}
		out1 := make([]byte, 8)
		out2 := make([]byte, 8)
		req := r.e.IReduce(r.w, f64s(float64(r.w.Rank())), out2, 1, mpi.Float64, mpi.OpSum, 0)
		r.e.Reduce(r.w, f64s(float64(r.w.Rank()*2)), out1, 1, mpi.Float64, mpi.OpSum, 0)
		req.Wait()
		if r.w.Rank() == 0 {
			blockSum = mpi.BytesToFloat64s(out1)[0]
			splitSum = mpi.BytesToFloat64s(out2)[0]
		}
		r.p.SpinInterruptible(2000 * us)
		coll.Barrier(r.w)
	})
	if splitSum != sumTo(size) {
		t.Errorf("split-phase sum = %v, want %v", splitSum, sumTo(size))
	}
	if blockSum != 2*sumTo(size) {
		t.Errorf("blocking sum = %v, want %v", blockSum, 2*sumTo(size))
	}
}

// TestAllreduceAB checks the composed operation on every rank.
func TestAllreduceAB(t *testing.T) {
	size := 9
	got := make([]float64, size)
	runWorld(size, 16, func(r *ctxRank) {
		out := make([]byte, 8)
		r.e.Allreduce(r.w, f64s(float64(r.w.Rank())), out, 1, mpi.Float64, mpi.OpSum)
		got[r.w.Rank()] = mpi.BytesToFloat64s(out)[0]
		r.p.SpinInterruptible(1000 * us)
		coll.Barrier(r.w)
	})
	for rk, v := range got {
		if v != sumTo(size) {
			t.Errorf("rank %d allreduce = %v, want %v", rk, v, sumTo(size))
		}
	}
}

// TestStressRandomSkewManyRounds hammers the engine with random skews
// over many rounds; the FIFO assertions inside the engine double as the
// oracle for instance matching.
func TestStressRandomSkewManyRounds(t *testing.T) {
	size := 16
	const rounds = 40
	var rootVals [rounds]float64
	runWorld(size, 17, func(r *ctxRank) {
		rng := r.p.Kernel().NewRNG()
		out := make([]byte, 16)
		for iter := 0; iter < rounds; iter++ {
			r.p.SpinInterruptible(sim.Time(rng.Int63n(500)) * us)
			r.e.Reduce(r.w, f64s(float64(iter), float64(r.w.Rank())), out, 2, mpi.Float64, mpi.OpSum, iter%size)
			if r.w.Rank() == iter%size {
				rootVals[iter] = mpi.BytesToFloat64s(out)[0]
			}
			r.p.SpinInterruptible(sim.Time(rng.Int63n(300)) * us)
		}
		r.p.SpinInterruptible(5000 * us)
		coll.Barrier(r.w)
	})
	for iter := 0; iter < rounds; iter++ {
		if rootVals[iter] != float64(iter*size) {
			t.Errorf("round %d root value %v, want %v", iter, rootVals[iter], float64(iter*size))
		}
	}
}

// TestQuiescenceInvariants: after a drained run nothing may remain in
// any engine queue on any rank.
func TestQuiescenceInvariants(t *testing.T) {
	size := 16
	engines := runWorld(size, 18, func(r *ctxRank) {
		rng := r.p.Kernel().NewRNG()
		out := make([]byte, 8)
		for iter := 0; iter < 10; iter++ {
			r.p.SpinInterruptible(sim.Time(rng.Int63n(800)) * us)
			r.e.Reduce(r.w, f64s(1), out, 1, mpi.Float64, mpi.OpSum, 0)
		}
		r.p.SpinInterruptible(5000 * us)
		coll.Barrier(r.w)
	})
	for i, e := range engines {
		if e.OutstandingDescriptors() != 0 || e.UBQLen() != 0 {
			t.Errorf("rank %d not quiescent: desc=%d ubq=%d", i, e.OutstandingDescriptors(), e.UBQLen())
		}
		if e.bcastPendingLen() != 0 || e.bcastArrivedLen() != 0 {
			t.Errorf("rank %d has bcast residue", i)
		}
	}
}

// TestDeterminism: two identical runs produce byte-identical metrics
// and timings.
// TestEngineResetAllocatesNothing: NewEngine binds the hook, the NIC
// signal handler and the firmware once, so Reset only installs them and
// clears state. A pooled cluster's per-rank engine reset allocates
// nothing.
func TestEngineResetAllocatesNothing(t *testing.T) {
	engines := runWorld(4, 1, func(r *ctxRank) {
		out := make([]byte, 8)
		r.e.Reduce(r.w, f64s(1), out, 1, mpi.Float64, mpi.OpSum, 0)
		r.p.SpinInterruptible(1000 * us)
		coll.Barrier(r.w)
	})
	for i, e := range engines {
		if allocs := testing.AllocsPerRun(10, e.Reset); allocs != 0 {
			t.Errorf("rank %d: Engine.Reset allocates %.0f objects, want 0", i, allocs)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Metrics, sim.Time) {
		var end sim.Time
		engines := runWorld(16, 99, func(r *ctxRank) {
			rng := r.p.Kernel().NewRNG()
			out := make([]byte, 32)
			for iter := 0; iter < 8; iter++ {
				r.p.SpinInterruptible(sim.Time(rng.Int63n(1000)) * us)
				r.e.Reduce(r.w, f64s(1, 2, 3, 4), out, 4, mpi.Float64, mpi.OpSum, 0)
				r.p.SpinInterruptible(2000 * us)
				coll.Barrier(r.w)
			}
			if r.w.Rank() == 0 {
				end = r.p.Now()
			}
		})
		return engines[4].Metrics, end
	}
	m1, e1 := run()
	m2, e2 := run()
	if m1 != m2 {
		t.Errorf("metrics differ across identical runs:\n%+v\n%+v", m1, m2)
	}
	if e1 != e2 {
		t.Errorf("end times differ: %v vs %v", e1, e2)
	}
}

// TestReduceABIntegerExactness documents that results are exact for
// integer-valued data regardless of arrival order.
func TestReduceABIntegerExactness(t *testing.T) {
	size := 16
	var got float64
	runWorld(size, 20, func(r *ctxRank) {
		rng := r.p.Kernel().NewRNG()
		r.p.SpinInterruptible(sim.Time(rng.Int63n(700)) * us)
		in := mpi.Float64sToBytes([]float64{float64(int64(1) << uint(r.w.Rank()%40))})
		out := make([]byte, 8)
		r.e.Reduce(r.w, in, out, 1, mpi.Float64, mpi.OpSum, 0)
		r.p.SpinInterruptible(2000 * us)
		coll.Barrier(r.w)
		if r.w.Rank() == 0 {
			got = mpi.BytesToFloat64s(out)[0]
		}
	})
	var want float64
	for rk := 0; rk < size; rk++ {
		want += float64(int64(1) << uint(rk%40))
	}
	if got != want {
		t.Errorf("integer AB sum = %v, want %v", got, want)
	}
}

// TestTraceSpansEmitted checks the visualization hook fires for both
// phases.
func TestTraceSpansEmitted(t *testing.T) {
	size := 4
	var syncSpans, asyncSpans int
	runWorld(size, 21, func(r *ctxRank) {
		if r.w.Rank() == 2 {
			r.e.SetTrace(func(kind byte, start, end sim.Time) {
				switch kind {
				case 'R':
					syncSpans++
				case 'A':
					asyncSpans++
				}
				if end < start {
					t.Error("span ends before it starts")
				}
			})
		}
		if r.w.Rank() == 3 {
			r.p.SpinInterruptible(300 * us)
		}
		out := make([]byte, 8)
		r.e.Reduce(r.w, f64s(1), out, 1, mpi.Float64, mpi.OpSum, 0)
		r.p.SpinInterruptible(1000 * us)
		coll.Barrier(r.w)
	})
	if syncSpans != 1 {
		t.Errorf("sync spans = %d, want 1", syncSpans)
	}
	if asyncSpans == 0 {
		t.Error("no async spans recorded for the late child")
	}
}

var _ = math.Abs // keep math imported for future tolerance checks

// TestTreeForApplicability pins the one rule for when an installed
// topology-aware tree replaces the binomial shape: world communicator,
// blocking reduce context, matching root and size — and nothing else.
func TestTreeForApplicability(t *testing.T) {
	const size, root = 8, 2
	leaf := func(r int) int { return r / 4 }
	installed := coll.NewTopoTree(size, root, leaf)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	runWorld(size, 1, func(r *ctxRank) {
		if r.w.Rank() != 0 {
			return
		}
		pr := r.w.Proc()
		for _, tc := range []struct {
			name string
			tree *coll.TopoTree
			c    *mpi.Comm
			kind mpi.CtxKind
			root int
			want coll.Tree
		}{
			{"world, blocking, matching", installed, r.w, mpi.CtxReduce, root, installed.Tree()},
			{"nothing installed", nil, r.w, mpi.CtxReduce, root, coll.Binomial(root, size)},
			{"split-phase context", installed, r.w, mpi.CtxIReduce, root, coll.Binomial(root, size)},
			{"other root", installed, r.w, mpi.CtxReduce, 3, coll.Binomial(3, size)},
			{"sub-communicator of equal size", installed, mpi.Sub(pr, all, 1), mpi.CtxReduce, root, coll.Binomial(root, size)},
			{"sub-communicator of another size", installed, mpi.Sub(pr, all[:4], 2), mpi.CtxReduce, root, coll.Binomial(root, 4)},
			{"tree of another size", coll.NewTopoTree(4, root, leaf), r.w, mpi.CtxReduce, root, coll.Binomial(root, size)},
		} {
			r.e.SetTopoTree(tc.tree)
			if got := r.e.treeFor(tc.c, tc.kind, tc.root); got != tc.want {
				t.Errorf("%s: treeFor = %+v, want %+v", tc.name, got, tc.want)
			}
		}
	})
}
