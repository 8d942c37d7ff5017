package topo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// tableRouter is the route oracle: the per-destination tables Build
// once filled (levels-1 entries a host) and the route read back out of
// them, with the climb found by dividing by pow. Route computes the
// same links from the addresses' digits and must agree on every pair.
type tableRouter struct {
	t *Topology
	// dnLink[dst*(levels-1)+l] is the directed link from the
	// level-(l+1) switch down into the level-l switch toward dst; upOff
	// holds the dst-determined part of the up-link id at climb level l
	// (the src contributes only its subtree prefix).
	dnLink, upOff []int32
}

func newTableRouter(t *Topology) *tableRouter {
	o := &tableRouter{t: t}
	if t.levels == 1 {
		return o
	}
	h := t.levels - 1
	o.dnLink = make([]int32, t.n*h)
	o.upOff = make([]int32, t.n*h)
	for dst := 0; dst < t.n; dst++ {
		for l := 0; l < h; l++ {
			p := dst % t.pow[l]         // parallel switch index on dst's path
			r := (dst / t.pow[l]) % t.m // D-mod-k: digit l picks the parallel tier
			lc := t.tiers[l].lcap
			o.upOff[dst*h+l] = int32((p*t.m + r) % lc)
			o.dnLink[dst*h+l] = int32(t.tiers[l].dn + (dst/t.pow[l+1])*lc + (p*t.m+r)%lc)
		}
	}
	return o
}

func (o *tableRouter) route(src, dst int, p *Path) {
	t := o.t
	if t.levels == 1 || src == dst {
		p.N, p.Switches = 0, 1
		return
	}
	a := 0
	for a < t.levels-1 && src/t.pow[a+1] != dst/t.pow[a+1] {
		a++
	}
	base := dst * (t.levels - 1)
	idx := 0
	for l := 0; l < a; l++ {
		p.Links[idx] = int32(t.tiers[l].up+(src/t.pow[l+1])*t.tiers[l].lcap) + o.upOff[base+l]
		idx++
	}
	for l := a - 1; l >= 0; l-- {
		p.Links[idx] = o.dnLink[base+l]
		idx++
	}
	p.N = idx
	p.Switches = 2*a + 1
}

// checkRoute compares Route and Hops against the table oracle for one
// pair. It is called for millions of pairs, so it skips t.Helper.
func checkRoute(t *testing.T, tp *Topology, o *tableRouter, src, dst int) bool {
	var got, want Path
	tp.Route(src, dst, &got)
	o.route(src, dst, &want)
	if got.N != want.N || got.Switches != want.Switches || got.Links != want.Links {
		t.Errorf("%v n=%d %d->%d: Route %v (%d switches), tables %v (%d switches)", tp.spec, tp.n, src, dst,
			slices.Clone(got.Links[:got.N]), got.Switches, slices.Clone(want.Links[:want.N]), want.Switches)
		return false
	}
	if h := tp.Hops(src, dst); h != want.Switches {
		t.Errorf("%v n=%d %d->%d: Hops %d, tables %d", tp.spec, tp.n, src, dst, h, want.Switches)
		return false
	}
	return true
}

// TestRouteMatchesTables: Route equals the table oracle on fat-trees
// of radix 4, 8 and 16 at oversubscription 1, 4 and 8 and on
// leaf-spines, at 1000, 4096 and 4097 hosts: every (src, dst) pair at
// 1000 and every destination from every 8th source above (an all-pairs
// sweep of every shape takes minutes). -short walks every 4th and
// every 64th source.
func TestRouteMatchesTables(t *testing.T) {
	type shape struct {
		spec Spec
		n    int
	}
	var shapes []shape
	for _, k := range []int{4, 8, 16} {
		for _, o := range []int{1, 4, 8} {
			for _, n := range []int{1000, 4096, 4097} {
				shapes = append(shapes, shape{Spec{Kind: FatTree, K: k, Oversub: o}, n})
			}
		}
	}
	for _, o := range []int{1, 4} {
		shapes = append(shapes, shape{Spec{Kind: LeafSpine, K: 4, Oversub: o}, 1000},
			shape{Spec{Kind: LeafSpine, K: 32, Oversub: o}, 4096},
			shape{Spec{Kind: LeafSpine, K: 7, Oversub: o}, 4097})
	}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("%v/%d", sh.spec, sh.n), func(t *testing.T) {
			step, short := 1, 4
			if sh.n > 1000 {
				step, short = 8, 64
			}
			if testing.Short() {
				step = short
			}
			tp := Build(sh.spec, sh.n)
			o := newTableRouter(tp)
			for src := 0; src < sh.n; src += step {
				for dst := 0; dst < sh.n; dst++ {
					if !checkRoute(t, tp, o, src, dst) {
						return
					}
				}
			}
		})
	}
}

// TestRouteMatchesTablesLarge: 10⁵ seeded pairs on 262144 hosts, the
// largest flow grid cell's fat-tree, at full bisection and 4:1.
func TestRouteMatchesTablesLarge(t *testing.T) {
	const n = 262144
	for _, o := range []int{1, 4} {
		tp := Build(Spec{Kind: FatTree, K: 16, Oversub: o}, n)
		or := newTableRouter(tp)
		rng := rand.New(rand.NewSource(262144))
		for i := 0; i < 100000; i++ {
			if !checkRoute(t, tp, or, rng.Intn(n), rng.Intn(n)) {
				return
			}
		}
	}
}

// BenchmarkRoute times Route on fattree:16 over a fixed seeded list of
// pairs, in cache (4096 hosts) and out (262144), next to the table
// lookup it replaced (the oracle above, as Build and Route once ran it).
func BenchmarkRoute(b *testing.B) {
	for _, n := range []int{4096, 262144} {
		tp := Build(Spec{Kind: FatTree, K: 16}, n)
		o := newTableRouter(tp)
		rng := rand.New(rand.NewSource(int64(n)))
		pairs := make([][2]int, 1<<16)
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		for _, impl := range []struct {
			name  string
			route func(src, dst int, p *Path)
		}{{"digits", tp.Route}, {"tables", o.route}} {
			b.Run(fmt.Sprintf("%d/%s", n, impl.name), func(b *testing.B) {
				var p Path
				hops := 0
				for i := 0; i < b.N; i++ {
					pr := pairs[i&(len(pairs)-1)]
					impl.route(pr[0], pr[1], &p)
					hops += p.N
				}
				sinkHops = hops
			})
		}
	}
}

var sinkHops int
