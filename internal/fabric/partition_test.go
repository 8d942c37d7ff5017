package fabric

import (
	"math/rand"
	"reflect"
	"testing"

	"abred/internal/model"
	"abred/internal/sim"
	"abred/internal/topo"
)

// cloneMark is what the test's ClonePayload adds to a payload, so a
// duplicate is recognizable at the sink.
const cloneMark = 1 << 20

// arrival is one delivered frame as its sink saw it.
type arrival struct {
	At       sim.Time
	Src, Dst int
	Payload  int
}

// partFab is a 16-node fattree:4 fabric (four 4-host pods) over one or
// two LP shards, with recording sinks. got[d] and drops[s] are appended
// only by the LP that owns node d resp. s, so windows never share them.
type partFab struct {
	f     *Fabric
	ks    []*sim.Kernel
	pmap  []int32
	got   [][]arrival
	drops [][]int
	react func(pf *partFab, a arrival) // optional, runs inside the sink
}

func (pf *partFab) kOf(node int) *sim.Kernel {
	if pf.pmap == nil {
		return pf.ks[0]
	}
	return pf.ks[pf.pmap[node]]
}

// sendAt schedules fr's injection at virtual time t on its source's LP.
func (pf *partFab) sendAt(t sim.Time, fr Frame) {
	pf.kOf(fr.Src).After(t, func() { pf.f.Send(fr) })
}

// partOutcome is everything a run leaves behind.
type partOutcome struct {
	Got            [][]arrival
	Drops          [][]int
	Frames, Bytes  uint64
	Dropped, Duped uint64
}

func (o *partOutcome) delivered() (n uint64) {
	for _, g := range o.Got {
		n += uint64(len(g))
	}
	return n
}

// partProgram is one row of the table: what is sent, which faults the
// shards inject, and what must hold afterwards.
type partProgram struct {
	name  string
	inj   func() Injector // per-shard injector factory; nil = clean fabric
	start func(pf *partFab)
	react func(pf *partFab, a arrival)
	// exact: the 1-shard and 2-shard runs must agree on every arrival,
	// times included. Otherwise only the totals must agree.
	exact bool
	check func(t *testing.T, o *partOutcome)
}

func runPart(t *testing.T, lps int, p partProgram) *partOutcome {
	t.Helper()
	const n = 16
	tp := topo.Build(topo.Spec{Kind: topo.FatTree, K: 4}, n)
	pf := &partFab{ks: make([]*sim.Kernel, lps), got: make([][]arrival, n),
		drops: make([][]int, n), react: p.react}
	for i := range pf.ks {
		pf.ks[i] = sim.New(int64(1 + i))
	}
	if lps > 1 {
		var parts int
		if pf.pmap, parts = tp.Partition(lps); parts != lps {
			t.Fatalf("fattree:4 partitioned into %d LPs, want %d", parts, lps)
		}
	}
	f := New(pf.ks[0], n, model.DefaultCosts())
	f.SetTopology(tp)
	f.SetPartition(pf.pmap, pf.ks)
	pf.f = f
	for i := 0; i < n; i++ {
		i := i
		f.Connect(i, func(fr Frame) {
			a := arrival{pf.kOf(i).Now(), fr.Src, fr.Dst, fr.Payload.(int)}
			pf.got[i] = append(pf.got[i], a)
			if pf.react != nil {
				pf.react(pf, a)
			}
		})
	}
	if p.inj != nil {
		injs := make([]Injector, lps)
		for i := range injs {
			injs[i] = p.inj()
		}
		f.SetInjectors(injs)
	}
	f.OnDrop = func(fr Frame) { pf.drops[fr.Src] = append(pf.drops[fr.Src], fr.Payload.(int)) }
	f.ClonePayload = func(p any) any { return p.(int) + cloneMark }

	p.start(pf)
	sim.NewLPSet(pf.ks, f.Lookahead(), f.Exchange).Run()

	o := &partOutcome{Got: pf.got, Drops: pf.drops}
	o.Frames, o.Bytes = f.Stats()
	o.Dropped, o.Duped = f.FaultStats()
	return o
}

// linkInj judges a frame by a pure function of its link and its ordinal
// on that link. Every frame on a link is judged by the source's shard,
// so one instance per shard decides exactly as a single instance would.
type linkInj struct {
	seen    map[[2]int]int
	verdict func(src, dst, nth int) Verdict
}

func newLinkInj(verdict func(src, dst, nth int) Verdict) func() Injector {
	return func() Injector { return &linkInj{seen: map[[2]int]int{}, verdict: verdict} }
}

func (l *linkInj) Judge(src, dst int) Verdict {
	key := [2]int{src, dst}
	l.seen[key]++
	return l.verdict(src, dst, l.seen[key])
}

// TestPartitionOneVsTwoShards runs each program on the 1-shard and the
// 2-shard partition of the same fabric under sim.LPSet. Nodes 0-7 are
// LP 0 and 8-15 LP 1 when split, so 5->15 is a cross-LP route that goes
// through the outbox, Exchange and a crossing, while the 1-shard run
// walks the same links inside Send.
func TestPartitionOneVsTwoShards(t *testing.T) {
	// One frame in flight at a time: each delivery sends the next hop.
	// Same leaf, same LP across the spine, cross-LP both ways, loopback.
	chain := []int{0, 1, 5, 15, 14, 3, 3, 8, 0, 12, 2, 9, 10, 6}

	// A seeded burst from every node: 40 frames each to random nodes
	// (self included), close enough together to queue on shared links.
	type planned struct {
		t  sim.Time
		fr Frame
	}
	var burst []planned
	rng := rand.New(rand.NewSource(20030701))
	for src := 0; src < 16; src++ {
		var at sim.Time
		seq := map[int]int{}
		for j := 0; j < 40; j++ {
			at += sim.Time(rng.Intn(3000))
			dst := rng.Intn(16)
			burst = append(burst, planned{at, Frame{Src: src, Dst: dst,
				Size: 64 + rng.Intn(4000), Payload: seq[dst]}})
			seq[dst]++
		}
	}

	programs := []partProgram{
		{
			name:  "one-in-flight",
			exact: true,
			start: func(pf *partFab) {
				pf.sendAt(0, Frame{Src: chain[0], Dst: chain[1], Size: 600, Payload: 1})
			},
			react: func(pf *partFab, a arrival) {
				if i := a.Payload; i+1 < len(chain) {
					pf.f.Send(Frame{Src: chain[i], Dst: chain[i+1], Size: 600 + 40*i, Payload: i + 1})
				}
			},
			check: func(t *testing.T, o *partOutcome) {
				if got := o.delivered(); got != uint64(len(chain)-1) {
					t.Errorf("delivered %d frames, want %d", got, len(chain)-1)
				}
			},
		},
		{
			name: "contended-lossy",
			inj: newLinkInj(func(src, dst, nth int) Verdict {
				h := src*31 + dst*17 + nth*7
				return Verdict{Drop: h%13 == 0, Dup: h%11 == 0}
			}),
			start: func(pf *partFab) {
				for _, p := range burst {
					pf.sendAt(p.t, p.fr)
				}
			},
			check: func(t *testing.T, o *partOutcome) {
				if o.Frames != uint64(len(burst)) || o.Dropped == 0 || o.Duped == 0 {
					t.Fatalf("sent %d (want %d), dropped %d, duplicated %d: program must exercise both faults",
						o.Frames, len(burst), o.Dropped, o.Duped)
				}
				if got, want := o.delivered(), o.Frames-o.Dropped+o.Duped; got != want {
					t.Errorf("delivered %d frames, want sent-dropped+duplicated = %d", got, want)
				}
				for dst, g := range o.Got {
					last := map[int]int{} // per source: highest ordinal seen
					for _, a := range g {
						seq := a.Payload % cloneMark
						prev, seen := last[a.Src]
						if dup := a.Payload >= cloneMark; dup && !(seen && seq == prev) {
							t.Errorf("%d->%d: duplicate of frame %d does not follow its original", a.Src, dst, seq)
						} else if !dup && seen && seq <= prev {
							t.Errorf("%d->%d: frame %d arrived after frame %d (FIFO broken)", a.Src, dst, seq, prev)
						}
						last[a.Src] = seq
					}
				}
			},
		},
		{
			// Four back-to-back frames on a cross-LP route, one fate
			// each: dropped, duplicated, delayed, clean.
			name:  "scripted-cross-lp",
			exact: true,
			inj: newLinkInj(func(src, dst, nth int) Verdict {
				return []Verdict{{Drop: true}, {Dup: true}, {Delay: 50 * us}, {}}[nth-1]
			}),
			start: func(pf *partFab) {
				for i := 0; i < 4; i++ {
					pf.sendAt(0, Frame{Src: 5, Dst: 15, Size: 200, Payload: i})
				}
			},
			check: func(t *testing.T, o *partOutcome) {
				if !reflect.DeepEqual(o.Drops[5], []int{0}) {
					t.Errorf("OnDrop saw %v, want [0]", o.Drops[5])
				}
				var order []int
				for _, a := range o.Got[15] {
					order = append(order, a.Payload)
				}
				// The clean frame 3 overtakes the delayed frame 2.
				if want := []int{1, 1 + cloneMark, 3, 2}; !reflect.DeepEqual(order, want) {
					t.Fatalf("node 15 received %v, want %v", order, want)
				}
				if late := o.Got[15][3].At - o.Got[15][2].At; late < 40*us {
					t.Errorf("delayed frame arrived %v after the clean one, want most of its 50us delay", late)
				}
			},
		},
	}

	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			one := runPart(t, 1, p)
			two := runPart(t, 2, p)
			t.Run("1-shard", func(t *testing.T) { p.check(t, one) })
			t.Run("2-shards", func(t *testing.T) { p.check(t, two) })
			if p.exact && !reflect.DeepEqual(one, two) {
				t.Errorf("1-shard and 2-shard runs differ:\n 1: %+v\n 2: %+v", one, two)
			}
			totals := func(o *partOutcome) [5]uint64 {
				return [5]uint64{o.Frames, o.Bytes, o.Dropped, o.Duped, o.delivered()}
			}
			if totals(one) != totals(two) {
				t.Errorf("totals (frames, bytes, dropped, duplicated, delivered): 1 shard %v, 2 shards %v",
					totals(one), totals(two))
			}
			// Each run starts fresh LP goroutines, so agreement across
			// repeats is agreement across interleavings.
			for rep := 0; rep < 3; rep++ {
				if again := runPart(t, 2, p); !reflect.DeepEqual(two, again) {
					t.Fatalf("2-shard repeat %d diverged from the first run", rep)
				}
			}
		})
	}
}
