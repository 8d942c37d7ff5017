package core

import (
	"testing"
	"time"

	"abred/internal/coll"
	"abred/internal/mpi"
	"abred/internal/sim"
)

// bigCount makes payloads comfortably beyond the 16 KiB eager limit.
const bigCount = 4096 // 32 KiB of float64

func bigInput(rank int) []byte {
	vals := make([]float64, bigCount)
	for i := range vals {
		vals[i] = float64(rank + i%7)
	}
	return mpi.Float64sToBytes(vals)
}

func bigExpected(size int) []float64 {
	want := make([]float64, bigCount)
	for r := 0; r < size; r++ {
		for i := range want {
			want[i] += float64(r + i%7)
		}
	}
	return want
}

func checkBig(t *testing.T, got []byte, size int) {
	t.Helper()
	want := bigExpected(size)
	vals := mpi.BytesToFloat64s(got)
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, vals[i], want[i])
		}
	}
}

// TestRendezvousABCorrect: large-message bypass reductions produce
// exact results across sizes, roots and skew.
func TestRendezvousABCorrect(t *testing.T) {
	for _, size := range []int{2, 4, 8} {
		for _, root := range []int{0, size - 1} {
			size, root := size, root
			var got []byte
			engines := runWorld(size, int64(size+root), func(r *ctxRank) {
				r.e.EnableRendezvousAB()
				if r.w.Rank()%2 == 1 {
					r.p.SpinInterruptible(sim.Time(r.w.Rank()) * 150 * us)
				}
				out := make([]byte, bigCount*8)
				r.e.Reduce(r.w, bigInput(r.w.Rank()), out, bigCount, mpi.Float64, mpi.OpSum, root)
				r.p.SpinInterruptible(5 * time.Millisecond)
				coll.Barrier(r.w)
				if r.w.Rank() == root {
					got = out
				}
			})
			checkBig(t, got, size)
			for i, e := range engines {
				if e.Metrics.SizeFallbacks != 0 {
					t.Errorf("size=%d rank %d fell back despite rendezvous AB", size, i)
				}
			}
		}
	}
}

// TestRendezvousABStreamsLateChildAsync: a very late large child must
// be streamed and combined without the parent re-entering MPI.
func TestRendezvousABStreamsLateChildAsync(t *testing.T) {
	size := 4 // node 2 internal, child 3
	var got []byte
	var parentInCall sim.Time
	engines := runWorld(size, 41, func(r *ctxRank) {
		r.e.EnableRendezvousAB()
		if r.w.Rank() == 3 {
			r.p.SpinInterruptible(800 * us)
		}
		out := make([]byte, bigCount*8)
		t0 := r.p.Now()
		r.e.Reduce(r.w, bigInput(r.w.Rank()), out, bigCount, mpi.Float64, mpi.OpSum, 0)
		if r.w.Rank() == 2 {
			parentInCall = r.p.Now() - t0
		}
		// Only computation from here: the RTS/CTS/Data handshake and
		// the combine must all run from signal handlers.
		r.p.SpinInterruptible(8 * time.Millisecond)
		coll.Barrier(r.w)
		if r.w.Rank() == 0 {
			got = out
		}
	})
	checkBig(t, got, size)
	m := engines[2].Metrics
	if m.RendezvousChildren == 0 {
		t.Errorf("parent streamed no rendezvous children: %+v", m)
	}
	if m.AsyncChildren == 0 {
		t.Errorf("late large child was not combined asynchronously: %+v", m)
	}
	if parentInCall > 400*us {
		t.Errorf("parent blocked %v in Reduce; bypass should return early", parentInCall)
	}
}

// TestRendezvousABEarlyRTS: the large child's announcement arriving
// before the parent's Reduce is queued and consumed from the AB
// unexpected queue.
func TestRendezvousABEarlyRTS(t *testing.T) {
	size := 4
	var got []byte
	engines := runWorld(size, 42, func(r *ctxRank) {
		r.e.EnableRendezvousAB()
		out := make([]byte, bigCount*8)
		switch r.w.Rank() {
		case 1:
			r.p.SpinInterruptible(500 * us)
			r.w.Send(2, 5, []byte{1})
		case 2:
			r.p.SpinInterruptible(300 * us)
			r.w.Recv(1, 5, make([]byte, 1)) // progress queues child 3's RTS
			if r.e.UBQLen() == 0 {
				t.Error("early large-child RTS not in the AB unexpected queue")
			}
		}
		r.e.Reduce(r.w, bigInput(r.w.Rank()), out, bigCount, mpi.Float64, mpi.OpSum, 0)
		r.p.SpinInterruptible(8 * time.Millisecond)
		coll.Barrier(r.w)
		if r.w.Rank() == 0 {
			got = out
		}
	})
	checkBig(t, got, size)
	if engines[2].Metrics.EarlyMessages == 0 {
		t.Error("no early messages consumed")
	}
}

// TestRendezvousABMatchesEagerResults: the same reduction via eager
// (small) and rendezvous (large) paths agree with the reference on a
// shared prefix.
func TestRendezvousABPinAccounting(t *testing.T) {
	size := 4
	engines := runWorld(size, 43, func(r *ctxRank) {
		r.e.EnableRendezvousAB()
		out := make([]byte, bigCount*8)
		r.e.Reduce(r.w, bigInput(r.w.Rank()), out, bigCount, mpi.Float64, mpi.OpSum, 0)
		r.p.SpinInterruptible(8 * time.Millisecond)
		coll.Barrier(r.w)
		// Everything transient must be unpinned: only the eager pool
		// remains registered.
		if pool := 64 * r.w.Proc().CM.EagerThreshold(); r.w.Proc().Mem.PinnedBytes() != pool {
			t.Errorf("rank %d leaked %d pinned bytes", r.w.Rank(), r.w.Proc().Mem.PinnedBytes()-pool)
		}
	})
	for i, e := range engines {
		if e.OutstandingDescriptors() != 0 || e.UBQLen() != 0 {
			t.Errorf("rank %d not quiescent", i)
		}
		if e.pr.NIC().SignalsEnabled() {
			t.Errorf("rank %d signals still on", i)
		}
	}
}

// TestRendezvousABDefaultOffFallsBack: without the opt-in, the paper's
// fallback behaviour is preserved.
func TestRendezvousABDefaultOffFallsBack(t *testing.T) {
	size := 4
	engines := runWorld(size, 44, func(r *ctxRank) {
		out := make([]byte, bigCount*8)
		r.e.Reduce(r.w, bigInput(r.w.Rank()), out, bigCount, mpi.Float64, mpi.OpSum, 0)
		coll.Barrier(r.w)
	})
	for i, e := range engines {
		if e.Metrics.SizeFallbacks != 1 {
			t.Errorf("rank %d: fallbacks = %d, want 1 (paper default)", i, e.Metrics.SizeFallbacks)
		}
		if e.Metrics.RendezvousChildren != 0 {
			t.Errorf("rank %d streamed children without opt-in", i)
		}
	}
}

// TestRendezvousABBackToBack: several large reductions outstanding with
// a consistently late child (§IV-D scenario at rendezvous scale).
func TestRendezvousABBackToBack(t *testing.T) {
	size := 4
	const rounds = 3
	var roots [rounds]float64
	runWorld(size, 45, func(r *ctxRank) {
		r.e.EnableRendezvousAB()
		out := make([]byte, bigCount*8)
		for iter := 0; iter < rounds; iter++ {
			if r.w.Rank() == 3 {
				r.p.SpinInterruptible(600 * us)
			}
			in := make([]float64, bigCount)
			for i := range in {
				in[i] = float64(r.w.Rank() * (iter + 1))
			}
			r.e.Reduce(r.w, mpi.Float64sToBytes(in), out, bigCount, mpi.Float64, mpi.OpSum, 0)
			if r.w.Rank() == 0 {
				roots[iter] = mpi.BytesToFloat64s(out)[0]
			}
		}
		r.p.SpinInterruptible(20 * time.Millisecond)
		coll.Barrier(r.w)
	})
	for iter := 0; iter < rounds; iter++ {
		want := float64((0 + 1 + 2 + 3) * (iter + 1))
		if roots[iter] != want {
			t.Errorf("round %d = %v, want %v", iter, roots[iter], want)
		}
	}
}
