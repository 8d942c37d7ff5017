package flow

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/topo"
)

const mmEps = 1e-9

// nopH discards deliveries; used where the test asserts on Net state
// rather than completions.
type nopH struct{}

func (nopH) FlowEvent(uint64, sim.Time) {}

// TestEpochWrapClearsMarks forces the flow-mark epoch through its
// uint32 wraparound mid-run, with flows active and every pooled flow's
// mark poisoned to 1 — the value the epoch restarts at. If bumpEpoch
// failed to clear surviving marks on wrap, the first post-wrap
// expansion would treat the active flows as already in the closure and
// mis-share the component; the deliveries (tag and time, in completion
// order) must instead match an unpoisoned net's exactly.
func TestEpochWrapClearsMarks(t *testing.T) {
	prog := func(poison bool) (*rec, *Net) {
		k, nt := newTestNet(t, 8, topo.Spec{})
		var r rec
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 32; i++ {
			src := rng.Intn(8)
			dst := rng.Intn(7)
			if dst >= src {
				dst++
			}
			sz := 200 + rng.Intn(4000)
			at := sim.Time(rng.Intn(6000))
			i := i
			k.After(at, func() { nt.Start(src, dst, sz, 0, &r, uint64(i)) })
		}
		k.After(3000, func() {
			if nt.active < 4 {
				t.Fatalf("%d flows active at the wrap, want a shared component", nt.active)
			}
			if poison {
				nt.epoch = ^uint32(0) // the next bump wraps to 0
				for _, f := range nt.flows {
					f.mark = 1
				}
			}
		})
		k.Run()
		return &r, nt
	}

	want, _ := prog(false)
	got, n2 := prog(true)
	got.mustEqual(t, want, 32, "after the wrap")
	if n2.epoch == 0 || n2.epoch > 1<<20 {
		t.Fatalf("epoch %d did not restart after the wrap", n2.epoch)
	}
}

// checkClosure compares the closure the last reshare built, seeded by
// flow f alone, with a map-based search of f's component over the
// shard's link lists: clinks must hold each component link exactly
// once, and cflows each component flow.
func checkClosure(t *testing.T, nt *Net, f *Flow) {
	t.Helper()
	links := map[int32]bool{}
	flows := map[*Flow]bool{f: true}
	for todo := []*Flow{f}; len(todo) > 0; {
		g := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		for _, li := range g.links {
			if links[li] {
				continue
			}
			links[li] = true
			for ref := nt.head[li]; ref >= 0; {
				h := nt.flows[ref>>slotBits]
				if !flows[h] {
					flows[h] = true
					todo = append(todo, h)
				}
				ref = h.next[ref&(1<<slotBits-1)]
			}
		}
	}
	seen := map[int32]bool{}
	for _, li := range nt.clinks {
		if seen[li] || !links[li] {
			t.Errorf("lp %d: closure link %d repeated or outside the component", nt.lp, li)
		}
		seen[li] = true
	}
	if len(seen) != len(links) {
		t.Errorf("lp %d: closure holds %d links, component %d", nt.lp, len(seen), len(links))
	}
	inC := map[*Flow]bool{}
	for _, g := range nt.cflows {
		inC[g] = true
	}
	if len(inC) != len(flows) || len(nt.cflows) != len(flows) {
		t.Errorf("lp %d: closure holds %d flows, component %d", nt.lp, len(nt.cflows), len(flows))
	}
	for g := range flows {
		if !inC[g] {
			t.Errorf("lp %d: component flow %d missing from the closure", nt.lp, g.id)
		}
	}
}

// TestClosureSparseSet drives seeded-random traffic whose components
// come and go, so links rejoin closures with lslot values left by
// earlier reshares — out of range, or naming another link's slot — and
// checks every Start's closure against checkClosure's map oracle, on
// one LP and on two. Errorf, not Fatalf: shard checks run on LP
// goroutines.
func TestClosureSparseSet(t *testing.T) {
	const n = 16
	tp := topo.Build(topo.Spec{Kind: topo.FatTree, K: 4}, n)
	for _, lps := range []int{1, 2} {
		t.Run(fmt.Sprintf("lps%d", lps), func(t *testing.T) {
			var pmap []int32
			if lps > 1 {
				pmap, _ = tp.Partition(lps)
			}
			ks := make([]*sim.Kernel, lps)
			for i := range ks {
				ks[i] = sim.New(int64(i + 1))
			}
			nets := NewNets(ks, pmap, tp, n, model.DefaultCosts())
			checks := make([]int, lps)
			rng := rand.New(rand.NewSource(20031))
			var h nopH
			for i := 0; i < 200; i++ {
				src := rng.Intn(n)
				dst := rng.Intn(n - 1)
				if dst >= src {
					dst++
				}
				sz := 64 + rng.Intn(8192)
				at := sim.Time(rng.Intn(40000))
				lp := 0
				if pmap != nil {
					lp = int(pmap[src])
				}
				nt := nets[lp]
				ks[lp].After(at, func() {
					epoch := nt.epoch
					nt.Start(src, dst, sz, 0, h, 0)
					if nt.epoch == epoch {
						return // alone on its links: no reshare
					}
					checks[lp]++
					checkClosure(t, nt, nt.cflows[0])
				})
			}
			if lps == 1 {
				ks[0].Run()
			} else {
				par := NewPar(nets)
				sim.NewLPSet(ks, par.Lookahead(), par.Exchange).Run()
			}
			t.Logf("closures checked per LP: %v", checks)
			for lp, c := range checks {
				if c < 50 {
					t.Errorf("lp %d checked %d closures, want a busy fabric", lp, c)
				}
			}
		})
	}
}

// activeFlows walks the shard's owned link lists and returns the
// distinct flows occupying them (sources and stubs alike).
func activeFlows(nt *Net) []*Flow {
	seen := map[*Flow]bool{}
	var out []*Flow
	for li := range nt.head {
		if nt.lpOf != nil && nt.lpOf[li] != nt.lp {
			continue
		}
		for ref := nt.head[li]; ref >= 0; {
			f := nt.flows[ref>>slotBits]
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
			ref = f.next[ref&(1<<slotBits-1)]
		}
	}
	return out
}

// checkMaxMin asserts the water-fill invariants over a shard's owned
// links at the probe instant: every link's rate sum fits its capacity,
// and every flow is pinned either by a saturated link on which its
// rate is maximal (no one to steal from) or by its peer shard's grant.
// Errorf, not Fatalf: shard probes run on LP goroutines.
func checkMaxMin(t *testing.T, nt *Net, when sim.Time) {
	t.Helper()
	fl := activeFlows(nt)
	sum := map[int32]float64{}
	max := map[int32]float64{}
	for _, f := range fl {
		for _, li := range f.links {
			sum[li] += f.rate
			if f.rate > max[li] {
				max[li] = f.rate
			}
		}
	}
	for li, s := range sum {
		if s > nt.capBns+mmEps {
			t.Errorf("t=%d: link %d oversubscribed: %g > %g", when, li, s, nt.capBns)
		}
	}
	for _, f := range fl {
		if f.rate <= 0 {
			t.Errorf("t=%d: flow %d carries rate %g", when, f.id, f.rate)
			continue
		}
		if !math.IsInf(f.xcap, 1) && f.rate >= f.xcap-mmEps {
			continue // grant-bound by the peer shard
		}
		bound := false
		for _, li := range f.links {
			if sum[li] >= nt.capBns-mmEps && f.rate >= max[li]-mmEps {
				bound = true
				break
			}
		}
		if !bound {
			t.Errorf("t=%d: flow %d rate %g has headroom on every link and no binding grant",
				when, f.id, f.rate)
		}
	}
}

// randProgram schedules flows flows with seeded-random endpoints,
// sizes and arrival times, plus probes max-min probe instants, on the
// given shard set. Handlers are chosen by destination LP so delivery
// recording never crosses a window boundary.
func randProgram(t *testing.T, ks []*sim.Kernel, nets []*Net, pmap []int32,
	n, flows, probes int, seed int64) []*rec {
	recs := make([]*rec, len(ks))
	for i := range recs {
		recs[i] = &rec{}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < flows; i++ {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		sz := 64 + rng.Intn(8192)
		at := sim.Time(rng.Intn(30000))
		slp, dlp := int32(0), int32(0)
		if pmap != nil {
			slp, dlp = pmap[src], pmap[dst]
		}
		i, r := i, recs[dlp]
		ks[slp].After(at, func() { nets[slp].Start(src, dst, sz, 0, r, uint64(i)) })
	}
	for p := 0; p < probes; p++ {
		at := sim.Time(rng.Intn(60000))
		lp := rng.Intn(len(ks))
		ks[lp].After(at, func() { checkMaxMin(t, nets[lp], at) })
	}
	return recs
}

// TestMaxMinPropertyRandom drives seeded-random traffic through the
// monolithic solver and asserts the water-fill invariants at random
// instants, on a crossbar (pure fan-in/fan-out) and a fat-tree (shared
// interior links).
func TestMaxMinPropertyRandom(t *testing.T) {
	cases := []struct {
		name string
		spec topo.Spec
	}{
		{"crossbar", topo.Spec{}},
		{"fattree", topo.Spec{Kind: topo.FatTree, K: 4}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			k, nt := newTestNet(t, 16, tc.spec)
			recs := randProgram(t, []*sim.Kernel{k}, []*Net{nt}, nil, 16, 120, 200, 20030701)
			k.Run()
			if len(recs[0].tags) != 120 {
				t.Fatalf("deliveries = %d, want 120", len(recs[0].tags))
			}
		})
	}
}

// TestMaxMinPropertyShards re-runs the randomized property check with
// the substrate split across LPs, so cross-spine flows exercise the
// stub/grant protocol while every shard's owned links keep the same
// invariants.
func TestMaxMinPropertyShards(t *testing.T) {
	const n = 16
	tp := topo.Build(topo.Spec{Kind: topo.FatTree, K: 4}, n)
	pmap, lps := tp.Partition(2)
	if lps != 2 {
		t.Fatalf("partition gave %d LPs, want 2", lps)
	}
	ks := make([]*sim.Kernel, lps)
	for i := range ks {
		ks[i] = sim.New(int64(i + 1))
	}
	nets := NewNets(ks, pmap, tp, n, model.DefaultCosts())
	par := NewPar(nets)
	recs := randProgram(t, ks, nets, pmap, n, 150, 200, 42)
	sim.NewLPSet(ks, par.Lookahead(), par.Exchange).Run()

	delivered := 0
	for _, r := range recs {
		delivered += len(r.tags)
	}
	if delivered != 150 {
		t.Fatalf("deliveries = %d, want 150", delivered)
	}
	for i, nt := range nets {
		if nt.started == 0 {
			t.Errorf("shard %d started no flows; partition did not spread the program", i)
		}
		if nt.nstubs != 0 || len(nt.stubs) != 0 {
			t.Errorf("shard %d drained with %d live stubs", i, nt.nstubs)
		}
	}
}

// TestHeapScanEquivalence pins the heap water-fill to the linear-scan
// reference implementation: the same seeded-random program must yield
// the same deliveries (tag and time, in completion order) through
// either solver.
func TestHeapScanEquivalence(t *testing.T) {
	run := func(scan bool) *rec {
		k, nt := newTestNet(t, 16, topo.Spec{Kind: topo.FatTree, K: 4})
		nt.scanFill = scan
		r := randProgram(t, []*sim.Kernel{k}, []*Net{nt}, nil, 16, 150, 0, 99)[0]
		k.Run()
		return r
	}
	heap, scan := run(false), run(true)
	heap.mustEqual(t, scan, 150, "(heap vs scan)")
}

// reshareProgram is the alloc/benchmark workload: M sources fan into
// host 0 while each also runs a private flow, so the fill freezes the
// fan-in in one round and then needs one round per remaining injection
// link — the shape where the per-round linear scan goes quadratic.
func reshareProgram(k *sim.Kernel, nt *Net, m int) {
	var h nopH
	for i := 1; i <= m; i++ {
		nt.Start(i, 0, 4096, 0, h, 0)
		nt.Start(i, i, 4096, 0, h, 0)
	}
	k.Run()
	k.Reset(1)
	nt.Reset()
}

// TestReshareAllocs pins the steady-state allocation behaviour: after
// one warm-up run has sized every pool and scratch slice, a full
// program of contended flows must run the water-fill without
// allocating per round.
func TestReshareAllocs(t *testing.T) {
	k := sim.New(1)
	nt := NewNet(k, nil, 33, model.DefaultCosts())
	reshareProgram(k, nt, 32) // size pools and scratch
	avg := testing.AllocsPerRun(10, func() { reshareProgram(k, nt, 32) })
	if avg > 8 {
		t.Errorf("steady-state program averaged %.1f allocs, want <= 8", avg)
	}
}

// The fan-in width is past the solvers' crossover (the scan wins below
// ~128 sources on this shape; the heap is ~2.5x faster at 512 and
// pulls further ahead as components grow toward collective fan-in at
// the large envelopes).
func benchReshare(b *testing.B, scan bool) {
	const m = 512
	k := sim.New(1)
	nt := NewNet(k, nil, m+1, model.DefaultCosts())
	nt.scanFill = scan
	reshareProgram(k, nt, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reshareProgram(k, nt, m)
	}
}

func BenchmarkReshareHeap(b *testing.B) { benchReshare(b, false) }
func BenchmarkReshareScan(b *testing.B) { benchReshare(b, true) }

// TestLinkStateBytes sums the element sizes of every Net slice that
// holds one entry per link: the flow lists' heads and counts and the
// closure slot, 12 bytes. A per-link closure mark made it 16.
func TestLinkStateBytes(t *testing.T) {
	_, nt := newTestNet(t, 16, topo.Spec{Kind: topo.FatTree, K: 4})
	nlinks := len(nt.head)
	v := reflect.ValueOf(nt).Elem()
	var per uintptr
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() == nlinks {
			per += f.Type().Elem().Size()
		}
	}
	if per != 12 {
		t.Errorf("a Net keeps %d bytes per link, want 12", per)
	}
}
