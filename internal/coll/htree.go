// Topology-aware reduction trees. The flat binomial tree spreads a
// rank's children across the whole machine, so on a multi-stage fabric
// most tree edges cross shared uplinks. A TopoTree clusters ranks under
// their leaf switch: each leaf group reduces internally over a binomial
// tree (those edges never leave the switch), and only the group leaders
// run a second binomial tree among themselves, so exactly one result
// per leaf crosses the spine. Construction is a pure function of
// (size, root, leaf assignment), so every rank derives the same tree —
// the same property the flat binomial helpers rely on.
package coll

import "fmt"

// TopoTree is a two-level reduction tree for one (root, size, leaf
// assignment) triple. Parents and children are precomputed flat arrays
// that Tree() hands to the collectives; queries are O(1) and
// allocation-free.
type TopoTree struct {
	root, size int
	parent     []int32
	off        []int32 // kids[off[r]:off[r+1]] are rank r's children
	kids       []int32
}

// NewTopoTree builds the hierarchy-aware tree. leafOf maps a rank to
// its leaf-switch index (topo.Topology.Leaf, typically); ranks sharing
// a value form one group. Each group's leader is its lowest rank —
// except the root's group, which the root itself leads so the result
// ends at root without an extra hop. Within a group the members reduce
// over a binomial tree (leader at index 0, the rest in ascending rank
// order); the leaders reduce over a binomial tree of their own, rooted
// at the root's leader, with group order fixed by each group's first
// appearance in rank order.
func NewTopoTree(size, root int, leafOf func(int) int) *TopoTree {
	if size < 1 {
		panic(fmt.Sprintf("coll: tree size %d", size))
	}
	checkTreeArgs(root, root, size)

	groupOf := make(map[int]int) // leaf value -> group index
	var members [][]int32        // per group, ascending rank
	for r := 0; r < size; r++ {
		leaf := leafOf(r)
		gi, ok := groupOf[leaf]
		if !ok {
			gi = len(members)
			groupOf[leaf] = gi
			members = append(members, nil)
		}
		members[gi] = append(members[gi], int32(r))
	}
	rootGi := groupOf[leafOf(root)]
	// Put each group's leader at member index 0.
	for gi, ms := range members {
		lead := int32(0) // lowest rank: ascending order puts it first
		if gi == rootGi {
			for i, r := range ms {
				if r == int32(root) {
					lead = int32(i)
					break
				}
			}
		}
		ms[0], ms[lead] = ms[lead], ms[0]
	}

	t := &TopoTree{
		root:   root,
		size:   size,
		parent: make([]int32, size),
		off:    make([]int32, size+1),
		kids:   make([]int32, 0, size-1),
	}
	deg := make([]int32, size)
	addEdge := func(child, parent int32) {
		t.parent[child] = parent
		deg[parent]++
	}
	t.parent[root] = -1
	for gi, ms := range members {
		g := len(ms)
		for i := 1; i < g; i++ {
			addEdge(ms[i], ms[Parent(i, 0, g)])
		}
		if gi != rootGi {
			li := Parent(gi, rootGi, len(members))
			addEdge(ms[0], members[li][0])
		}
	}
	// Children, grouped per parent: intra-leaf children first (binomial
	// child order within the member index space), then the leader's
	// cross-leaf children. Two passes: offsets from degrees, then fill.
	for r := 0; r < size; r++ {
		t.off[r+1] = t.off[r] + deg[r]
	}
	t.kids = t.kids[:t.off[size]]
	fill := make([]int32, size)
	copy(fill, t.off[:size])
	for _, ms := range members {
		g := len(ms)
		for i := 0; i < g; i++ {
			p := ms[i]
			it := Kids(i, 0, g)
			for ci := it.Next(); ci >= 0; ci = it.Next() {
				t.kids[fill[p]] = ms[ci]
				fill[p]++
			}
		}
	}
	for gi := range members {
		p := members[gi][0]
		it := Kids(gi, rootGi, len(members))
		for ci := it.Next(); ci >= 0; ci = it.Next() {
			t.kids[fill[p]] = members[ci][0]
			fill[p]++
		}
	}
	return t
}

// Tree returns the parent/child relation of t as the value the
// collectives walk.
func (t *TopoTree) Tree() Tree { return Tree{root: t.root, size: t.size, topo: t} }
