// Package coll provides the default MPICH collective algorithms — the
// non-application-bypass baseline the paper compares against (§II). The
// reduction follows MPICH 1.2.x exactly: a binomial tree rooted at the
// operation's root, each process blocking on its children in ascending
// mask order before sending the combined result to its parent.
package coll

import "fmt"

// Parent returns rank's parent in the binomial tree rooted at root, or
// -1 if rank is the root. The tree matches Fig. 1 of the paper: with
// eight processes rooted at 0, process 0 has children {1, 2, 4}, process
// 2 has {3}, process 4 has {5, 6} and process 6 has {7}.
func Parent(rank, root, size int) int {
	checkTreeArgs(rank, root, size)
	rel := (rank - root + size) % size
	if rel == 0 {
		return -1
	}
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask != 0 {
			return ((rel &^ mask) + root) % size
		}
	}
	return -1
}

// ChildIter walks a rank's children without a callback or slice, so the
// collective hot paths allocate nothing per walk. One iterator serves
// both tree shapes: the binomial walk computes children from the mask,
// the topology-aware walk consumes the kids tail. The zero value ends
// at once.
type ChildIter struct {
	rel, root, size int
	mask            int
	kids            []int32 // topology-aware form: children still to visit
}

// Kids returns an iterator over rank's children in the binomial tree
// rooted at root, in ascending mask order.
// Use: for c := it.Next(); c >= 0; c = it.Next() { ... }
func Kids(rank, root, size int) ChildIter {
	checkTreeArgs(rank, root, size)
	return ChildIter{rel: (rank - root + size) % size, root: root, size: size, mask: 1}
}

// Next returns the next child rank, or -1 when the walk is done.
func (it *ChildIter) Next() int {
	if len(it.kids) > 0 {
		c := it.kids[0]
		it.kids = it.kids[1:]
		return int(c)
	}
	for it.mask < it.size {
		if it.rel&it.mask != 0 {
			it.mask = it.size
			return -1
		}
		child := it.rel | it.mask
		it.mask <<= 1
		if child < it.size {
			return (child + it.root) % it.size
		}
	}
	return -1
}

// ChildCount returns the number of children rank has in the tree rooted
// at root.
func ChildCount(rank, root, size int) int {
	checkTreeArgs(rank, root, size)
	rel := (rank - root + size) % size
	n := 0
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask != 0 {
			break
		}
		if rel|mask < size {
			n++
		}
	}
	return n
}

// Tree is the parent/child relation one tree collective runs over: the
// binomial shape of Fig. 1 (Binomial) or a topology-aware one
// ((*TopoTree).Tree). It is a value, passed by copy; every rank of a
// communicator must use the same one. Each method gives the two shapes
// one answer, so the code that walks a tree — the blocking reduction,
// the application-bypass descriptor, the flow lowering — exists once.
type Tree struct {
	root, size int
	topo       *TopoTree // nil: binomial
}

// Binomial returns the binomial tree over size ranks rooted at root.
// Arguments are checked where the tree is walked, exactly as the
// package-level Parent, ChildCount and Kids check theirs.
func Binomial(root, size int) Tree { return Tree{root: root, size: size} }

// Root returns the rank the result lands on.
func (t Tree) Root() int { return t.root }

// Size returns the communicator size the tree spans.
func (t Tree) Size() int { return t.size }

// Parent returns rank's parent, -1 at the root.
func (t Tree) Parent(rank int) int {
	if t.topo != nil {
		return int(t.topo.parent[rank])
	}
	return Parent(rank, t.root, t.size)
}

// ChildCount returns the number of children of rank.
func (t Tree) ChildCount(rank int) int {
	if t.topo != nil {
		return int(t.topo.off[rank+1] - t.topo.off[rank])
	}
	return ChildCount(rank, t.root, t.size)
}

// Kids returns an iterator over rank's children in the order a
// reduction receives them: ascending mask order on the binomial tree;
// intra-leaf children first, then (for a group leader) the leaders of
// subordinate groups, on a topology-aware one.
func (t Tree) Kids(rank int) ChildIter { return t.KidsFrom(rank, 0) }

// KidsFrom returns the iterator Kids returns once n children have been
// taken from it, so a walk can be parked as a count and resumed. On
// the binomial tree the k'th child sits at mask 1<<k: a child past the
// communicator's end ends the walk, since every later mask is larger.
func (t Tree) KidsFrom(rank, n int) ChildIter {
	if t.topo != nil {
		return ChildIter{kids: t.topo.kids[int(t.topo.off[rank])+n : t.topo.off[rank+1]]}
	}
	it := Kids(rank, t.root, t.size)
	it.mask <<= n
	return it
}

// AppendChildren appends rank's children to dst in Kids order and
// returns the extended slice, for callers that keep a reusable backing
// array (the application-bypass descriptor pool).
func (t Tree) AppendChildren(dst []int, rank int) []int {
	it := t.Kids(rank)
	for c := it.Next(); c >= 0; c = it.Next() {
		dst = append(dst, c)
	}
	return dst
}

// Depth returns the tree depth: ceil(log2(size)).
func Depth(size int) int {
	d := 0
	for n := 1; n < size; n <<= 1 {
		d++
	}
	return d
}

// LastRank returns the rank farthest from root in the binomial tree:
// the highest relative rank, which sits at maximum depth. The latency
// benchmark (§VI) starts timing at this node.
func LastRank(root, size int) int {
	return (size - 1 + root) % size
}

func checkTreeArgs(rank, root, size int) {
	if size <= 0 || rank < 0 || rank >= size || root < 0 || root >= size {
		panic(fmt.Sprintf("coll: bad tree args rank=%d root=%d size=%d", rank, root, size))
	}
}
