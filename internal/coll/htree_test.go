package coll

import (
	"testing"

	"abred/internal/mpi"
)

// leafMod groups ranks g at a time, like topo.Topology.Leaf on a tree
// with g hosts per leaf switch.
func leafMod(g int) func(int) int { return func(r int) int { return r / g } }

// TestTopoTreeInvariants checks the structural contract over a grid of
// sizes, roots and group widths: every rank reaches the root, parent
// and children are inverse relations, cross-leaf edges connect group
// leaders only, and exactly one result per non-root group crosses a
// leaf boundary.
func TestTopoTreeInvariants(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 7, 8, 16, 33, 64} {
		for _, root := range []int{0, size / 2, size - 1} {
			for _, g := range []int{1, 2, 3, 4, 8} {
				leaf := leafMod(g)
				tr := NewTopoTree(size, root, leaf).Tree()
				if tr.Parent(root) != -1 {
					t.Fatalf("size=%d root=%d g=%d: root has parent %d", size, root, g, tr.Parent(root))
				}
				crossOut := map[int]int{} // group -> edges leaving it upward
				kids := map[int][]int{}
				for r := 0; r < size; r++ {
					kids[r] = tr.AppendChildren(nil, r)
					if len(kids[r]) != tr.ChildCount(r) {
						t.Fatalf("size=%d root=%d g=%d rank=%d: ChildCount %d but %d children",
							size, root, g, r, tr.ChildCount(r), len(kids[r]))
					}
					if r == root {
						continue
					}
					p := tr.Parent(r)
					if p < 0 || p >= size {
						t.Fatalf("size=%d root=%d g=%d rank=%d: parent %d", size, root, g, r, p)
					}
					// Walk to the root; a cycle would loop past size steps.
					for hops, q := 0, r; q != root; hops++ {
						if hops > size {
							t.Fatalf("size=%d root=%d g=%d: rank %d never reaches root", size, root, g, r)
						}
						q = tr.Parent(q)
					}
					if leaf(r) != leaf(p) {
						crossOut[leaf(r)]++
						// Cross-leaf senders must be group leaders: the
						// lowest rank of the group (or the root, which
						// leads its own group but never sends up).
						for q := 0; q < size; q++ {
							if leaf(q) == leaf(r) && q < r {
								t.Fatalf("size=%d root=%d g=%d: non-leader %d (group min %d) crosses leaves",
									size, root, g, r, q)
							}
						}
					}
				}
				for r := 0; r < size; r++ {
					for _, c := range kids[r] {
						if tr.Parent(c) != r {
							t.Fatalf("size=%d root=%d g=%d: child %d of %d has parent %d",
								size, root, g, c, r, tr.Parent(c))
						}
					}
				}
				for grp, n := range crossOut {
					if n != 1 {
						t.Fatalf("size=%d root=%d g=%d: group %d sends %d results across leaves, want 1",
							size, root, g, grp, n)
					}
				}
			}
		}
	}
}

// TestTopoTreeRootLeadsOwnGroup: the root leads its group even when it
// is not the group's lowest rank, so the group's partial result lands
// on the root directly instead of detouring through a leader.
func TestTopoTreeRootLeadsOwnGroup(t *testing.T) {
	tr := NewTopoTree(8, 3, leafMod(2)).Tree() // groups {0,1} {2,3} {4,5} {6,7}; root 3
	if p := tr.Parent(2); p != 3 {
		t.Errorf("rank 2's parent = %d, want root 3", p)
	}
	for _, r := range []int{0, 4, 6} { // other groups' leaders
		for q := r; q != 3; q = tr.Parent(q) {
			if q != r && q/2 != r/2 && q != 3 && tr.Parent(q) == -1 {
				t.Fatalf("leader %d never reaches root", r)
			}
		}
	}
}

// TestTopoTreeDeterminism: rebuilding yields the identical tree — the
// property that lets every rank derive the shape independently.
func TestTopoTreeDeterminism(t *testing.T) {
	a := NewTopoTree(33, 5, leafMod(4)).Tree()
	b := NewTopoTree(33, 5, leafMod(4)).Tree()
	for r := 0; r < 33; r++ {
		if a.Parent(r) != b.Parent(r) {
			t.Fatalf("rank %d: parents differ across rebuilds", r)
		}
		ka, kb := a.AppendChildren(nil, r), b.AppendChildren(nil, r)
		if len(ka) != len(kb) {
			t.Fatalf("rank %d: child counts differ", r)
		}
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("rank %d: child order differs", r)
			}
		}
	}
}

// TestTopoTreeFlatDegenerate: one rank per group degenerates to a tree
// of leaders only — the flat binomial shape over all ranks.
func TestTopoTreeFlatDegenerate(t *testing.T) {
	const size, root = 16, 2
	tr := NewTopoTree(size, root, leafMod(1)).Tree()
	for r := 0; r < size; r++ {
		if got, want := tr.Parent(r), Parent(r, root, size); got != want {
			t.Errorf("rank %d: parent %d, flat binomial says %d", r, got, want)
		}
	}
}

// TestReduceTreeEqualsSequentialFold: the hierarchy-aware blocking
// reduce computes the same result as the flat one, across roots and
// ragged sizes.
func TestReduceTreeEqualsSequentialFold(t *testing.T) {
	for _, size := range []int{1, 2, 5, 8, 13, 16} {
		for _, root := range []int{0, size - 1} {
			tr := NewTopoTree(size, root, leafMod(4)).Tree()
			var got []float64
			runWorld(size, 9, func(w *mpi.Comm) {
				in := f64s(float64(w.Rank()+1), -2, float64(w.Rank()*w.Rank()), 0.5)
				out := make([]byte, 32)
				ReduceOn(w, tr, mpi.CtxReduce, w.NextSeq(mpi.CtxReduce), in, out, 4, mpi.Float64, mpi.OpSum, false)
				if w.Rank() == root {
					got = mpi.BytesToFloat64s(out)
				}
			})
			want := make([]float64, 4)
			for r := 0; r < size; r++ {
				in := []float64{float64(r + 1), -2, float64(r * r), 0.5}
				for i := range want {
					want[i] += in[i]
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("size=%d root=%d: got %v, want %v", size, root, got, want)
				}
			}
		}
	}
}
