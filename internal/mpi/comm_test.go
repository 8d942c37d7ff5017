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
