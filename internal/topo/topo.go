// Package topo describes the switching fabric's physical topology and
// computes deterministic shortest-path routes through it.
//
// The paper's testbed interconnect was Myrinet-2000, whose "switch" is
// a Clos network built from 16-port crossbars; a frame between distant
// hosts crosses several crossbar stages and contends with other flows
// at shared inter-switch links. Three topologies are modeled:
//
//   - Crossbar: one infinite-radix cut-through crossbar — the original
//     fabric model and the default. No inter-switch links exist; the
//     fabric keeps its historical (byte-identical) code path.
//   - FatTree: a folded Clos built from k-port crossbars, each with
//     m = k/2 down-ports and m up-ports. Hosts hang off leaf switches
//     in groups of m; levels are added until m^levels >= n, so 16-port
//     switches reach 16384 hosts in five stages, like a real
//     Myrinet-2000 Clos spine. The network has full bisection: a
//     subtree of m^l hosts at level l is served by m^l parallel
//     switches.
//   - LeafSpine: the idealized two-level datacenter fabric — leaves of
//     r hosts, r spine switches, every leaf wired to every spine. The
//     spine tier is never more than one crossing away regardless of
//     scale (spine radix is left unconstrained — this is the textbook
//     abstraction, not a buildable switch).
//
// Routing is up/down (the only shortest paths in a Clos) with
// destination-digit up-path selection — "D-mod-k", the deterministic
// ECMP collapse used by InfiniBand fat-tree routing engines: at climb
// level l the packet takes the uplink indexed by digit l of the
// destination's base-m address. The choice makes every route a pure
// function of (src, dst), computable from per-destination tables built
// once at construction time, and concentrates fan-in traffic exactly
// where a deterministically routed Clos concentrates it: all flows to
// one destination share that destination's down-path links, and
// leaf-mates sending to the same destination share their leaf's
// uplink. That is the contention the topology sweep measures.
package topo

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind selects the fabric topology family.
type Kind uint8

// Topology kinds. The zero value is the single crossbar — the model
// every existing configuration implicitly used.
const (
	Crossbar Kind = iota
	FatTree
	LeafSpine
)

// Spec declares a topology. It is a comparable value type so it can key
// cluster pools and Reset mismatch checks. The zero Spec is the single
// crossbar.
type Spec struct {
	Kind Kind
	// K is the switch radix parameter: for FatTree the total ports per
	// switch (even, >= 4; m = K/2 per direction), for LeafSpine the
	// hosts per leaf switch (>= 2; also the number of spines).
	K int
	// Oversub is the oversubscription ratio of the inter-switch tiers:
	// each switch keeps 1/Oversub of its full-bisection up-links (never
	// fewer than one), so a ratio of 4 means 4:1 — four hosts' worth of
	// traffic funnel onto one up-link's worth of capacity, the tapered
	// Clos every production datacenter runs. 0 and 1 both mean full
	// bisection (the historical byte-identical fabric); Norm collapses
	// them to one canonical value so pool keys and Reset checks treat
	// them as the same shape. Meaningless on the crossbar (no
	// inter-switch links), and rejected there when > 1.
	Oversub int
}

// Norm returns the canonical form of the spec: Oversub 0 and 1 both
// describe full bisection, so both normalize to 0 (keeping the zero
// Spec the zero value). Every comparison that treats Spec as a shape
// key (cluster pools, Reset checks) goes through Norm.
func (s Spec) Norm() Spec {
	if s.Oversub <= 1 {
		s.Oversub = 0
	}
	return s
}

// String renders the flag form: "crossbar", "fattree:16",
// "leafspine:8", with an ":oN" suffix on oversubscribed fabrics
// ("fattree:16:o4" is a 4:1 tapered fat-tree).
func (s Spec) String() string {
	var b string
	switch s.Kind {
	case Crossbar:
		return "crossbar"
	case FatTree:
		b = "fattree:" + strconv.Itoa(s.K)
	case LeafSpine:
		b = "leafspine:" + strconv.Itoa(s.K)
	default:
		return "?"
	}
	if s.Oversub > 1 {
		b += ":o" + strconv.Itoa(s.Oversub)
	}
	return b
}

// ParseSpec parses the -topo flag syntax: "crossbar" (or ""),
// "fattree:k" and "leafspine:r", each optionally suffixed with an
// oversubscription ratio as ":oN" ("fattree:16:o4").
func ParseSpec(s string) (Spec, error) {
	if s == "" || s == "crossbar" {
		return Spec{}, nil
	}
	name, rest, ok := strings.Cut(s, ":")
	if !ok {
		return Spec{}, fmt.Errorf("topo: %q: want crossbar, fattree:k or leafspine:r", s)
	}
	arg, osuf, hasO := strings.Cut(rest, ":")
	k, err := strconv.Atoi(arg)
	if err != nil {
		return Spec{}, fmt.Errorf("topo: %q: bad parameter %q", s, arg)
	}
	oversub := 0
	if hasO {
		if !strings.HasPrefix(osuf, "o") {
			return Spec{}, fmt.Errorf("topo: %q: bad oversubscription suffix %q (want oN)", s, osuf)
		}
		oversub, err = strconv.Atoi(osuf[1:])
		if err != nil {
			return Spec{}, fmt.Errorf("topo: %q: bad oversubscription ratio %q", s, osuf)
		}
	}
	var spec Spec
	switch name {
	case "fattree":
		spec = Spec{Kind: FatTree, K: k, Oversub: oversub}
	case "leafspine":
		spec = Spec{Kind: LeafSpine, K: k, Oversub: oversub}
	default:
		return Spec{}, fmt.Errorf("topo: unknown topology %q", name)
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec.Norm(), nil
}

// Validate reports whether the spec describes a buildable topology.
// Exported so configuration layers (cluster.Config.Validate, flag
// parsing) can reject a bad spec with an error instead of hitting
// Build's panic.
func (s Spec) Validate() error {
	if s.Oversub < 0 {
		return fmt.Errorf("topo: negative oversubscription ratio %d", s.Oversub)
	}
	switch s.Kind {
	case Crossbar:
		if s.Oversub > 1 {
			return fmt.Errorf("topo: the crossbar has no inter-switch links to oversubscribe (ratio %d)", s.Oversub)
		}
		return nil
	case FatTree:
		if s.K < 4 || s.K%2 != 0 {
			return fmt.Errorf("topo: fattree needs an even switch radix >= 4, got %d", s.K)
		}
	case LeafSpine:
		if s.K < 2 {
			return fmt.Errorf("topo: leafspine needs >= 2 hosts per leaf, got %d", s.K)
		}
	default:
		return fmt.Errorf("topo: unknown kind %d", s.Kind)
	}
	return nil
}

// MaxHops bounds the inter-switch links on any route: 2*(levels-1) for
// the deepest tree Build accepts.
const MaxHops = 32

// Path is one routed frame's traversal: the directed inter-switch links
// in order (up-links first, then down-links) plus the number of switch
// crossings. It is a fixed-size value so routing stays allocation-free.
type Path struct {
	Links    [MaxHops]int32
	N        int // inter-switch links used (0 on a single-switch route)
	Switches int // crossbar stages crossed (1 on a single-switch route)
}

// Topology is a built fabric graph with its routing tables.
type Topology struct {
	spec   Spec
	n      int
	m      int   // down-ports (and up-ports) per switch; 0 for crossbar
	levels int   // switch tiers; 1 = every host on one switch
	pow    []int // pow[l] = m^l, l in 0..levels
	upBase []int // first up-link id of climb level l
	dnBase []int // first down-link id of descent level l
	// lcap[l] is the number of distinct up-links (and down-links) each
	// subtree of pow[l+1] hosts keeps at climb level l: the full
	// bisection pow[l+1] divided by the oversubscription ratio (floored,
	// never below one). At ratio 1 this is exactly pow[l+1] and the link
	// numbering is byte-identical to the pre-oversubscription scheme; at
	// higher ratios the D-mod-k link choice is collapsed modulo lcap, so
	// the same wire-speed links carry more flows and the per-port FIFO
	// queues — not a slower wire — model the taper.
	lcap   []int
	nLinks int

	// Per-destination routing tables, levels-1 entries per host:
	// dnLink[dst*(levels-1)+l] is the directed link from the level-(l+1)
	// switch down into the level-l switch toward dst; upOff holds the
	// dst-determined part of the up-link id at climb level l (the src
	// contributes only its subtree prefix).
	dnLink []int32
	upOff  []int32
}

// Build constructs the topology for n hosts. Building is deterministic:
// the same (spec, n) always yields identical link numbering and routes,
// which the route-determinism tests pin down.
func Build(spec Spec, n int) *Topology {
	if n < 1 {
		panic(fmt.Sprintf("topo: %d hosts", n))
	}
	if err := spec.Validate(); err != nil {
		panic(err.Error())
	}
	spec = spec.Norm()
	t := &Topology{spec: spec, n: n, levels: 1}
	switch spec.Kind {
	case Crossbar:
		return t
	case FatTree:
		t.m = spec.K / 2
		for cap := t.m; cap < n; cap *= t.m {
			t.levels++
		}
	case LeafSpine:
		t.m = spec.K
		if n > t.m {
			t.levels = 2
		}
	}
	if 2*(t.levels-1) > MaxHops {
		panic(fmt.Sprintf("topo: %s with %d hosts needs %d stages (> %d hops)",
			spec, n, t.levels, MaxHops))
	}
	t.pow = make([]int, t.levels+1)
	t.pow[0] = 1
	for l := 1; l <= t.levels; l++ {
		t.pow[l] = t.pow[l-1] * t.m
	}
	oversub := spec.Oversub
	if oversub < 1 {
		oversub = 1
	}
	t.upBase = make([]int, t.levels-1)
	t.dnBase = make([]int, t.levels-1)
	t.lcap = make([]int, t.levels-1)
	for l := 0; l < t.levels-1; l++ {
		// Level-l switches: one group of pow[l] parallel switches per
		// subtree of pow[l+1] hosts, pow[l+1] = pow[l]*m uplinks between
		// them at full bisection (and symmetrically as many downlinks
		// from the tier above), tapered by the oversubscription ratio.
		lc := t.pow[l+1] / oversub
		if lc < 1 {
			lc = 1
		}
		t.lcap[l] = lc
		cnt := ((n + t.pow[l+1] - 1) / t.pow[l+1]) * lc
		t.upBase[l] = t.nLinks
		t.nLinks += cnt
		t.dnBase[l] = t.nLinks
		t.nLinks += cnt
	}
	t.dnLink = make([]int32, n*(t.levels-1))
	t.upOff = make([]int32, n*(t.levels-1))
	for dst := 0; dst < n; dst++ {
		for l := 0; l < t.levels-1; l++ {
			p := dst % t.pow[l]         // parallel switch index on dst's path
			r := (dst / t.pow[l]) % t.m // D-mod-k: digit l picks the parallel tier
			// Full-bisection port choice p*m+r, collapsed onto the
			// tapered link set; at ratio 1 the modulus is pow[l+1] and
			// the id is exactly the historical p*m+r.
			t.upOff[dst*(t.levels-1)+l] = int32((p*t.m + r) % t.lcap[l])
			t.dnLink[dst*(t.levels-1)+l] = int32(t.dnBase[l] + (dst/t.pow[l+1])*t.lcap[l] + (p*t.m+r)%t.lcap[l])
		}
	}
	return t
}

// Nodes returns the host count.
func (t *Topology) Nodes() int { return t.n }

// Spec returns the declarative description the topology was built from.
func (t *Topology) Spec() Spec { return t.spec }

// Levels returns the number of switch tiers (1 = single switch).
func (t *Topology) Levels() int { return t.levels }

// Links returns the number of directed inter-switch links; link ids in
// routed Paths are in [0, Links()). Zero for single-switch topologies.
func (t *Topology) Links() int { return t.nLinks }

// Leaf returns the leaf-switch index of a host; hosts sharing a leaf
// reach each other in one switch crossing. Single-switch topologies
// have one leaf.
func (t *Topology) Leaf(node int) int {
	if t.m == 0 || t.levels == 1 {
		return 0
	}
	return node / t.m
}

// Leaves returns the number of leaf switches.
func (t *Topology) Leaves() int {
	if t.m == 0 || t.levels == 1 {
		return 1
	}
	return (t.n + t.m - 1) / t.m
}

// Pods returns the number of top-level pods: the subtrees of
// pow[levels-1] hosts hanging off the root switch tier. Hosts in
// different pods route through the full climb, so every inter-pod path's
// up-links lie in the source pod and its down-links in the destination
// pod — pods are the natural partition boundary for parallel (PDES)
// execution. Single-switch topologies have one pod.
func (t *Topology) Pods() int {
	if t.levels == 1 {
		return 1
	}
	return (t.n + t.pow[t.levels-1] - 1) / t.pow[t.levels-1]
}

// PodOf returns the pod index of a host.
func (t *Topology) PodOf(node int) int {
	if t.levels == 1 {
		return 0
	}
	return node / t.pow[t.levels-1]
}

// Partition maps each host to one of at most parts logical processes,
// splitting along pod boundaries: pods are assigned to LPs contiguously
// and as evenly as possible, and a host never shares an LP boundary with
// its pod. The actual LP count (parts clamped to [1, Pods()]) is
// returned alongside the map. Deterministic in (topology, parts).
func (t *Topology) Partition(parts int) ([]int32, int) {
	np := t.Pods()
	if parts > np {
		parts = np
	}
	if parts < 1 {
		parts = 1
	}
	pmap := make([]int32, t.n)
	if parts > 1 {
		for i := 0; i < t.n; i++ {
			pmap[i] = int32(t.PodOf(i) * parts / np)
		}
	}
	return pmap, parts
}

// LinkOwners labels every directed inter-switch link with the logical
// process that owns it under pmap: the LP of the hosts in the subtree
// the link hangs off. Well-defined because Partition assigns whole pods
// — and therefore whole subtrees of pow[l+1] hosts, which never
// straddle a pod — to one LP. Combined with the up/down route shape
// (up-links in the source's subtrees, down-links in the destination's),
// this is the ownership map a pod-partitioned flow substrate shards
// its link state by.
func (t *Topology) LinkOwners(pmap []int32) []int32 {
	if len(pmap) != t.n {
		panic(fmt.Sprintf("topo: partition map for %d hosts on a %d-host topology", len(pmap), t.n))
	}
	own := make([]int32, t.nLinks)
	for l := 0; l < t.levels-1; l++ {
		cnt := (t.n + t.pow[l+1] - 1) / t.pow[l+1]
		for s := 0; s < cnt; s++ {
			lp := pmap[s*t.pow[l+1]]
			for j := 0; j < t.lcap[l]; j++ {
				own[t.upBase[l]+s*t.lcap[l]+j] = lp
				own[t.dnBase[l]+s*t.lcap[l]+j] = lp
			}
		}
	}
	return own
}

// climb returns the number of up-links on the route src -> dst: the
// lowest tier at which both share a subtree, clamped at the top tier
// (the clamp is what lets LeafSpine's spines see every leaf).
func (t *Topology) climb(src, dst int) int {
	a := 0
	for a < t.levels-1 && src/t.pow[a+1] != dst/t.pow[a+1] {
		a++
	}
	return a
}

// Hops returns the number of switch crossings from src to dst: 1 within
// a leaf (or on any single-switch topology), 2a+1 across a tiers. Hops
// is symmetric — the up/down route reversed is the reverse route.
func (t *Topology) Hops(src, dst int) int {
	if t.levels == 1 {
		return 1
	}
	return 2*t.climb(src, dst) + 1
}

// Route fills p with the directed inter-switch links of the src -> dst
// shortest path, up-links first. It allocates nothing; p's backing
// array is caller storage. Loopback and single-switch routes have no
// links and one switch crossing.
func (t *Topology) Route(src, dst int, p *Path) {
	if src < 0 || src >= t.n || dst < 0 || dst >= t.n {
		panic(fmt.Sprintf("topo: bad route %d -> %d (%d hosts)", src, dst, t.n))
	}
	if t.levels == 1 || src == dst {
		p.N = 0
		p.Switches = 1
		return
	}
	a := t.climb(src, dst)
	base := dst * (t.levels - 1)
	idx := 0
	for l := 0; l < a; l++ {
		p.Links[idx] = int32(t.upBase[l]+(src/t.pow[l+1])*t.lcap[l]) + t.upOff[base+l]
		idx++
	}
	for l := a - 1; l >= 0; l-- {
		p.Links[idx] = t.dnLink[base+l]
		idx++
	}
	p.N = idx
	p.Switches = 2*a + 1
}
