package mpi

import (
	"testing"
	"time"

	"abred/internal/fabric"
	"abred/internal/gm"
	"abred/internal/model"
	"abred/internal/sim"
)

const us = time.Microsecond

// harness wires n MPI processes over a fabric and runs fn per rank.
type harness struct {
	k     *sim.Kernel
	procs []*Process
}

func runRanks(t *testing.T, n int, fn func(pr *Process)) *harness {
	t.Helper()
	h := &harness{k: sim.New(1), procs: make([]*Process, n)}
	costs := model.DefaultCosts()
	fab := fabric.New(h.k, n, costs)
	nics := make([]*gm.NIC, n)
	for i := 0; i < n; i++ {
		nics[i] = gm.NewNIC(h.k, i, model.NewCostModel(model.Uniform(1)[0], costs), fab)
	}
	for i := 0; i < n; i++ {
		i := i
		h.k.Spawn("rank", func(p *sim.Proc) {
			h.procs[i] = NewProcess(p, i, n, nics[i], model.NewCostModel(model.Uniform(1)[0], costs))
			fn(h.procs[i])
		})
	}
	h.k.Run()
	return h
}

func TestEagerSendRecv(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	runRanks(t, 2, func(pr *Process) {
		switch pr.Rank() {
		case 0:
			pr.Send(SendArgs{Dst: 1, Ctx: 0, Tag: 7, Data: payload})
		case 1:
			buf := make([]byte, 5)
			st := pr.Recv(0, 0, 7, buf)
			if st.Source != 0 || st.Tag != 7 || st.Count != 5 {
				t.Errorf("status = %+v", st)
			}
			for i := range payload {
				if buf[i] != payload[i] {
					t.Errorf("payload corrupted: %v", buf)
					break
				}
			}
		}
	})
}

func TestExpectedMessageCostsOneCopy(t *testing.T) {
	runRanks(t, 2, func(pr *Process) {
		switch pr.Rank() {
		case 0:
			pr.P.Sleep(100 * us) // let the receiver post first
			pr.Send(SendArgs{Dst: 1, Ctx: 0, Tag: 1, Data: make([]byte, 64)})
		case 1:
			req := pr.Irecv(0, 0, 1, make([]byte, 64))
			base := pr.Stats.HostCopies
			req.Wait()
			if pr.Stats.ExpectedMsgs != 1 {
				t.Errorf("expected msgs = %d, want 1", pr.Stats.ExpectedMsgs)
			}
			if got := pr.Stats.HostCopies - base; got != 1 {
				t.Errorf("expected path copies = %d, want 1 (packet -> user buffer)", got)
			}
		}
	})
}

func TestUnexpectedMessageCostsTwoCopies(t *testing.T) {
	runRanks(t, 2, func(pr *Process) {
		switch pr.Rank() {
		case 0:
			pr.Send(SendArgs{Dst: 1, Ctx: 0, Tag: 1, Data: make([]byte, 64)})
		case 1:
			pr.P.Sleep(200 * us) // message arrives before the receive
			pr.ProgressPoll()    // pull it into the unexpected queue
			if pr.UnexpectedLen() != 1 {
				t.Fatalf("unexpected queue = %d, want 1", pr.UnexpectedLen())
			}
			base := pr.Stats.HostCopies
			pr.Recv(0, 0, 1, make([]byte, 64))
			if pr.Stats.UnexpectedMsgs != 1 {
				t.Errorf("unexpected msgs = %d, want 1", pr.Stats.UnexpectedMsgs)
			}
			// One copy happened at arrival (before base), one at Recv.
			if got := pr.Stats.HostCopies - base; got != 1 {
				t.Errorf("copies at Recv = %d, want 1 (temp -> user)", got)
			}
		}
	})
}

func TestWildcards(t *testing.T) {
	runRanks(t, 3, func(pr *Process) {
		switch pr.Rank() {
		case 0:
			pr.Send(SendArgs{Dst: 2, Ctx: 0, Tag: 5, Data: []byte{0}})
		case 1:
			pr.P.Sleep(50 * us)
			pr.Send(SendArgs{Dst: 2, Ctx: 0, Tag: 9, Data: []byte{1}})
		case 2:
			buf := make([]byte, 1)
			st1 := pr.Recv(0, AnySource, AnyTag, buf)
			st2 := pr.Recv(0, AnySource, AnyTag, buf)
			got := map[int]int32{st1.Source: st1.Tag, st2.Source: st2.Tag}
			if got[0] != 5 || got[1] != 9 {
				t.Errorf("wildcard matching wrong: %+v %+v", st1, st2)
			}
		}
	})
}

func TestTagAndContextIsolation(t *testing.T) {
	runRanks(t, 2, func(pr *Process) {
		switch pr.Rank() {
		case 0:
			pr.Send(SendArgs{Dst: 1, Ctx: 3, Tag: 1, Data: []byte{33}})
			pr.Send(SendArgs{Dst: 1, Ctx: 0, Tag: 1, Data: []byte{11}})
			pr.Send(SendArgs{Dst: 1, Ctx: 0, Tag: 2, Data: []byte{22}})
		case 1:
			buf := make([]byte, 1)
			pr.Recv(0, 0, 2, buf)
			if buf[0] != 22 {
				t.Errorf("tag 2 got %d", buf[0])
			}
			pr.Recv(3, 0, 1, buf)
			if buf[0] != 33 {
				t.Errorf("ctx 3 got %d", buf[0])
			}
			pr.Recv(0, 0, 1, buf)
			if buf[0] != 11 {
				t.Errorf("ctx 0 tag 1 got %d", buf[0])
			}
		}
	})
}

func TestFIFOPerPair(t *testing.T) {
	const msgs = 20
	runRanks(t, 2, func(pr *Process) {
		switch pr.Rank() {
		case 0:
			for i := 0; i < msgs; i++ {
				pr.Send(SendArgs{Dst: 1, Ctx: 0, Tag: 1, Data: []byte{byte(i)}})
			}
		case 1:
			buf := make([]byte, 1)
			for i := 0; i < msgs; i++ {
				pr.Recv(0, 0, 1, buf)
				if buf[0] != byte(i) {
					t.Fatalf("message %d arrived out of order (got %d)", i, buf[0])
				}
			}
		}
	})
}

func TestIsendIrecvWaitTest(t *testing.T) {
	runRanks(t, 2, func(pr *Process) {
		switch pr.Rank() {
		case 0:
			pr.P.Sleep(100 * us)
			r := pr.Isend(SendArgs{Dst: 1, Ctx: 0, Tag: 4, Data: []byte{9}})
			if !r.Done() {
				t.Error("eager Isend should complete immediately")
			}
		case 1:
			buf := make([]byte, 1)
			req := pr.Irecv(0, 0, 4, buf)
			if req.Done() {
				t.Error("receive done before message sent")
			}
			st := req.Wait()
			if st.Source != 0 || buf[0] != 9 {
				t.Errorf("wrong message: %+v %v", st, buf)
			}
			if !req.Done() {
				t.Error("receive not done after Wait")
			}
		}
	})
}

func TestRendezvousLargeMessage(t *testing.T) {
	costs := model.DefaultCosts()
	big := make([]byte, costs.EagerThreshold*2)
	for i := range big {
		big[i] = byte(i * 31)
	}
	runRanks(t, 2, func(pr *Process) {
		switch pr.Rank() {
		case 0:
			pins := pr.Mem.Pins()
			pr.Send(SendArgs{Dst: 1, Ctx: 0, Tag: 1, Data: big})
			if pr.Stats.RendezvousSends != 1 {
				t.Errorf("rendezvous sends = %d, want 1", pr.Stats.RendezvousSends)
			}
			if pr.Mem.Pins() != pins+1 {
				t.Errorf("sender should pin exactly once")
			}
			if pool := 64 * pr.CM.EagerThreshold(); pr.Mem.PinnedBytes() != pool {
				t.Errorf("sender left %d bytes pinned beyond the eager pool", pr.Mem.PinnedBytes()-pool)
			}
		case 1:
			buf := make([]byte, len(big))
			pr.P.Sleep(50 * us)
			base := pr.Stats.HostCopies
			pr.Recv(0, 0, 1, buf)
			for i := 0; i < len(big); i += 4097 {
				if buf[i] != big[i] {
					t.Fatalf("payload corrupted at %d", i)
				}
			}
			if got := pr.Stats.HostCopies - base; got != 0 {
				t.Errorf("rendezvous receive made %d host copies, want 0 (DMA)", got)
			}
		}
	})
}

func TestRendezvousUnexpectedRTS(t *testing.T) {
	costs := model.DefaultCosts()
	big := make([]byte, costs.EagerThreshold+1)
	big[costs.EagerThreshold] = 42
	runRanks(t, 2, func(pr *Process) {
		switch pr.Rank() {
		case 0:
			pr.Send(SendArgs{Dst: 1, Ctx: 0, Tag: 1, Data: big})
		case 1:
			pr.P.Sleep(300 * us) // RTS arrives before the receive posts
			pr.ProgressPoll()
			if pr.UnexpectedLen() != 1 {
				t.Fatalf("RTS not queued as unexpected")
			}
			buf := make([]byte, len(big))
			pr.Recv(0, 0, 1, buf)
			if buf[costs.EagerThreshold] != 42 {
				t.Error("payload corrupted")
			}
		}
	})
}

func TestSelfSend(t *testing.T) {
	runRanks(t, 1, func(pr *Process) {
		req := pr.Irecv(0, 0, 3, make([]byte, 1))
		pr.Send(SendArgs{Dst: 0, Ctx: 0, Tag: 3, Data: []byte{77}})
		st := req.Wait()
		if st.Source != 0 || st.Count != 1 {
			t.Errorf("self-send status %+v", st)
		}
	})
}

func TestWaitAllCompletesEverything(t *testing.T) {
	runRanks(t, 2, func(pr *Process) {
		switch pr.Rank() {
		case 0:
			for i := int32(0); i < 5; i++ {
				pr.Send(SendArgs{Dst: 1, Ctx: 0, Tag: i, Data: []byte{byte(i)}})
			}
		case 1:
			var reqs []*Request
			bufs := make([][]byte, 5)
			for i := int32(0); i < 5; i++ {
				bufs[i] = make([]byte, 1)
				reqs = append(reqs, pr.Irecv(0, 0, i, bufs[i]))
			}
			WaitAll(reqs...)
			for i := range bufs {
				if bufs[i][0] != byte(i) {
					t.Errorf("req %d delivered %v", i, bufs[i])
				}
			}
		}
	})
}

func TestBlockedRecvChargesCPU(t *testing.T) {
	runRanks(t, 2, func(pr *Process) {
		switch pr.Rank() {
		case 0:
			pr.P.Sleep(500 * us)
			pr.Send(SendArgs{Dst: 1, Ctx: 0, Tag: 1, Data: []byte{1}})
		case 1:
			pr.Recv(0, 0, 1, make([]byte, 1))
			// MPICH-over-GM polls: the ~500µs wait must burn CPU.
			if pr.Stats.PollBusy < 400*us {
				t.Errorf("poll busy = %v, want ≈500µs (polling is CPU)", pr.Stats.PollBusy)
			}
		}
	})
}

func TestSendToInvalidRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	runRanks(t, 2, func(pr *Process) {
		if pr.Rank() == 0 {
			pr.Send(SendArgs{Dst: 5, Ctx: 0, Tag: 0, Data: []byte{1}})
		}
	})
}

func TestKindOfCtx(t *testing.T) {
	if KindOfCtx(uint16(CtxReduce)) != CtxReduce {
		t.Error("base comm kind wrong")
	}
	if KindOfCtx(uint16(nCtxKinds)+uint16(CtxBcast)) != CtxBcast {
		t.Error("dup comm kind wrong")
	}
}

func TestTruncationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected truncation panic")
		}
	}()
	runRanks(t, 2, func(pr *Process) {
		switch pr.Rank() {
		case 0:
			pr.Send(SendArgs{Dst: 1, Ctx: 0, Tag: 1, Data: make([]byte, 16)})
		case 1:
			pr.Recv(0, 0, 1, make([]byte, 4)) // too small
		}
	})
}
