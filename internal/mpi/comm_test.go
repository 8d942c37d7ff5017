package mpi

import "testing"

// Comm's methods are exercised heavily from the collective packages;
// these tests pin their contracts within the package itself.

func TestCommBasics(t *testing.T) {
	runRanks(t, 3, func(pr *Process) {
		w := World(pr)
		if w.Rank() != pr.Rank() || w.Size() != 3 || w.Proc() != pr {
			t.Errorf("comm identity wrong: %v", w)
		}
		if s0 := w.NextSeq(CtxReduce); s0 != 0 {
			t.Errorf("first seq = %d", s0)
		}
		if s1 := w.NextSeq(CtxReduce); s1 != 1 {
			t.Errorf("second seq = %d", s1)
		}
		if w.NextSeq(CtxBcast) != 0 {
			t.Error("seq streams not independent per kind")
		}
	})
}

func TestCommIsendIrecv(t *testing.T) {
	runRanks(t, 2, func(pr *Process) {
		w := World(pr)
		switch w.Rank() {
		case 0:
			w.Isend(1, 9, []byte{42}).Wait()
		case 1:
			buf := make([]byte, 1)
			st := w.Irecv(0, 9, buf).Wait()
			if st.Source != 0 || buf[0] != 42 {
				t.Errorf("irecv got %v from %d", buf, st.Source)
			}
		}
	})
}

func TestRebind(t *testing.T) {
	runRanks(t, 1, func(pr *Process) {
		old := pr.P
		pr.Rebind(old) // same proc: must be a no-op rebind
		if pr.P != old {
			t.Error("rebind lost the proc")
		}
	})
}

func TestDatatypeAndOpStrings(t *testing.T) {
	for _, d := range []Datatype{Byte, Float64} {
		if d.String() == "" || d.String() == "unknown" {
			t.Errorf("datatype %d has bad name %q", d, d.String())
		}
	}
	for _, op := range []Op{OpSum, OpProd, OpMax, OpMin, OpLAnd, OpLOr, OpBAnd, OpBOr, OpBXor} {
		if op.String() == "" || op.String() == "unknown" {
			t.Errorf("op %d has bad name %q", op, op.String())
		}
	}
	if Op(99).String() != "unknown" || Datatype(99).String() != "unknown" {
		t.Error("out-of-range names should be unknown")
	}
}

func TestStatusOnIncompletePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	runRanks(t, 1, func(pr *Process) {
		req := pr.Irecv(0, 0, 99, make([]byte, 1))
		req.Status() // incomplete: must panic
	})
}

func TestCommDupIsolation(t *testing.T) {
	runRanks(t, 2, func(pr *Process) {
		w := World(pr)
		d := w.Dup(0)
		if d.Ctx(CtxP2P) == w.Ctx(CtxP2P) {
			t.Fatal("dup shares context ids with world")
		}
		switch pr.Rank() {
		case 0:
			d.Send(1, 1, []byte{5})
			w.Send(1, 1, []byte{6})
		case 1:
			buf := make([]byte, 1)
			w.Recv(0, 1, buf)
			if buf[0] != 6 {
				t.Errorf("world recv got %d, want 6", buf[0])
			}
			d.Recv(0, 1, buf)
			if buf[0] != 5 {
				t.Errorf("dup recv got %d, want 5", buf[0])
			}
		}
	})
}
