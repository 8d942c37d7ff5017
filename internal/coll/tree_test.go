package coll

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestFig1Tree checks the exact tree of the paper's Fig. 1: eight
// processes rooted at 0.
func TestFig1Tree(t *testing.T) {
	wantChildren := map[int][]int{
		0: {1, 2, 4},
		1: {},
		2: {3},
		3: {},
		4: {5, 6},
		5: {},
		6: {7},
		7: {},
	}
	wantParent := map[int]int{0: -1, 1: 0, 2: 0, 3: 2, 4: 0, 5: 4, 6: 4, 7: 6}
	for rank := 0; rank < 8; rank++ {
		kids := Binomial(0, 8).AppendChildren(nil, rank)
		if len(kids) != len(wantChildren[rank]) {
			t.Fatalf("rank %d children = %v, want %v", rank, kids, wantChildren[rank])
		}
		for i, k := range kids {
			if k != wantChildren[rank][i] {
				t.Fatalf("rank %d children = %v, want %v", rank, kids, wantChildren[rank])
			}
		}
		if p := Parent(rank, 0, 8); p != wantParent[rank] {
			t.Fatalf("rank %d parent = %d, want %d", rank, p, wantParent[rank])
		}
	}
}

// TestTreeConsistency is the structural property the collectives depend
// on: for every (size, root), parent/child relations are mutual, every
// non-root has exactly one parent, and the tree spans all ranks.
func TestTreeConsistency(t *testing.T) {
	f := func(sizeRaw, rootRaw uint8) bool {
		size := int(sizeRaw%63) + 1
		root := int(rootRaw) % size
		seen := make([]int, size) // parent-edge count per rank
		for rank := 0; rank < size; rank++ {
			p := Parent(rank, root, size)
			if rank == root {
				if p != -1 {
					return false
				}
			} else {
				if p < 0 || p >= size {
					return false
				}
				seen[rank]++
				// Mutuality: rank must appear in p's child list.
				found := false
				for _, c := range Binomial(root, size).AppendChildren(nil, p) {
					if c == rank {
						found = true
					}
				}
				if !found {
					return false
				}
			}
			// Children must name rank as parent.
			for _, c := range Binomial(root, size).AppendChildren(nil, rank) {
				if Parent(c, root, size) != rank {
					return false
				}
			}
		}
		for rank, n := range seen {
			if rank != root && n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTreeDepthBound: the binomial tree has depth ceil(log2 size).
func TestTreeDepthBound(t *testing.T) {
	depthOf := func(rank, root, size int) int {
		d := 0
		for rank != root {
			rank = Parent(rank, root, size)
			d++
			if d > size {
				t.Fatalf("cycle detected at size=%d root=%d", size, root)
			}
		}
		return d
	}
	for _, size := range []int{1, 2, 3, 5, 8, 16, 17, 31, 32, 33, 64} {
		for _, root := range []int{0, size / 2, size - 1} {
			bound := Depth(size)
			for rank := 0; rank < size; rank++ {
				if d := depthOf(rank, root, size); d > bound {
					t.Fatalf("size=%d root=%d rank=%d depth %d > bound %d", size, root, rank, d, bound)
				}
			}
		}
	}
}

func TestDepth(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 32: 5, 33: 6, 1024: 10}
	for size, want := range cases {
		if got := Depth(size); got != want {
			t.Errorf("Depth(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestLastRank(t *testing.T) {
	if LastRank(0, 8) != 7 {
		t.Errorf("LastRank(0,8) = %d", LastRank(0, 8))
	}
	if LastRank(3, 8) != 2 {
		t.Errorf("LastRank(3,8) = %d", LastRank(3, 8))
	}
	// The last rank must be a leaf at maximal depth.
	for _, size := range []int{2, 8, 16, 32} {
		for _, root := range []int{0, 1, size - 1} {
			last := LastRank(root, size)
			if len(Binomial(root, size).AppendChildren(nil, last)) != 0 {
				t.Errorf("size=%d root=%d: last rank %d is not a leaf", size, root, last)
			}
		}
	}
}

func TestChildrenAscendingMaskOrder(t *testing.T) {
	// MPICH receives children in ascending mask order; AppendChildren
	// must list them that way (paper Fig. 1: node 0 -> 1, 2, 4).
	kids := Binomial(0, 32).AppendChildren(nil, 0)
	want := []int{1, 2, 4, 8, 16}
	if len(kids) != len(want) {
		t.Fatalf("children of root in 32 = %v", kids)
	}
	for i := range want {
		if kids[i] != want[i] {
			t.Fatalf("children order = %v, want %v", kids, want)
		}
	}
}

func TestBadTreeArgsPanic(t *testing.T) {
	for _, call := range []func(){
		func() { Parent(0, 0, 0) },
		func() { Parent(5, 0, 4) },
		func() { Binomial(9, 4).AppendChildren(nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for bad tree args")
				}
			}()
			call()
		}()
	}
}

// walk collects a Kids iteration.
func walk(it ChildIter) []int {
	var kids []int
	for c := it.Next(); c >= 0; c = it.Next() {
		kids = append(kids, c)
	}
	return kids
}

// TestTreeFormsContract checks, over seeded random (size, root, leaf
// map) draws, what every walker of a Tree relies on, for both forms:
// each non-root rank is the child of exactly its Parent, ChildCount,
// the Kids walk and AppendChildren agree, every rank reaches the root,
// and Binomial answers exactly as the package-level functions do.
func TestTreeFormsContract(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for draw := 0; draw < 300; draw++ {
		size := 1 + rng.Intn(200)
		root := rng.Intn(size)
		groups := 1 + rng.Intn(size)
		leaf := make([]int, size)
		for r := range leaf {
			leaf[r] = rng.Intn(groups)
		}
		bin := Binomial(root, size)
		topo := NewTopoTree(size, root, func(r int) int { return leaf[r] }).Tree()
		for _, f := range []struct {
			name string
			tr   Tree
		}{{"binomial", bin}, {"topo", topo}} {
			tr := f.tr
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("draw %d %s size=%d root=%d groups=%d: "+format,
					append([]any{draw, f.name, size, root, groups}, args...)...)
			}
			if tr.Root() != root || tr.Size() != size {
				fail("Root/Size = %d/%d", tr.Root(), tr.Size())
			}
			childOf := make([]int, size) // who lists this rank as a child
			for r := range childOf {
				childOf[r] = -1
			}
			for p := 0; p < size; p++ {
				kids := walk(tr.Kids(p))
				if app := tr.AppendChildren([]int{-7}, p); app[0] != -7 || !slices.Equal(app[1:], kids) {
					fail("rank %d: AppendChildren %v, Kids walk %v", p, app, kids)
				}
				if n := tr.ChildCount(p); n != len(kids) {
					fail("rank %d: ChildCount %d, Kids walk %v", p, n, kids)
				}
				for _, c := range kids {
					if c < 0 || c >= size {
						fail("rank %d: child %d out of range", p, c)
					}
					if childOf[c] >= 0 {
						fail("rank %d listed as a child of %d and of %d", c, childOf[c], p)
					}
					childOf[c] = p
				}
			}
			for r := 0; r < size; r++ {
				if got := tr.Parent(r); got != childOf[r] {
					fail("rank %d: Parent %d, but it is the child of %d", r, got, childOf[r])
				}
				hops := 0
				for q := r; q != root; q = tr.Parent(q) {
					if hops++; hops > size {
						fail("rank %d never reaches the root", r)
					}
				}
			}
			if tr.Parent(root) != -1 {
				fail("root has parent %d", tr.Parent(root))
			}
		}
		for r := 0; r < size; r++ {
			if bin.Parent(r) != Parent(r, root, size) || bin.ChildCount(r) != ChildCount(r, root, size) ||
				!slices.Equal(walk(bin.Kids(r)), walk(Kids(r, root, size))) {
				t.Fatalf("draw %d size=%d root=%d rank %d: Binomial disagrees with Parent/ChildCount/Kids", draw, size, root, r)
			}
		}
	}
}

// TestKidsWalkAllocatesNothing: the iterator is a value on the caller's
// stack for both tree forms, and its zero value ends at once.
func TestKidsWalkAllocatesNothing(t *testing.T) {
	const size, root = 64, 5
	for name, tr := range map[string]Tree{
		"binomial": Binomial(root, size),
		"topo":     NewTopoTree(size, root, func(r int) int { return r / 8 }).Tree(),
	} {
		edges := 0
		allocs := testing.AllocsPerRun(100, func() {
			edges = 0
			for r := 0; r < size; r++ {
				it := tr.Kids(r)
				for c := it.Next(); c >= 0; c = it.Next() {
					edges++
				}
			}
		})
		if allocs != 0 || edges != size-1 {
			t.Errorf("%s: %v allocs per full walk, %d edges (want 0, %d)", name, allocs, edges, size-1)
		}
	}
	var zero ChildIter
	if c := zero.Next(); c != -1 {
		t.Errorf("zero ChildIter yields %d", c)
	}
}
