package coll

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"abred/internal/fabric"
	"abred/internal/gm"
	"abred/internal/model"
	"abred/internal/mpi"
	"abred/internal/sim"
)

// runWorld spawns n ranks over a fresh fabric and runs fn with each
// rank's world communicator.
func runWorld(n int, seed int64, fn func(w *mpi.Comm)) {
	k := sim.New(seed)
	costs := model.DefaultCosts()
	fab := fabric.New(k, n, costs)
	specs := model.Uniform(n)
	nics := make([]*gm.NIC, n)
	for i := 0; i < n; i++ {
		nics[i] = gm.NewNIC(k, i, model.NewCostModel(specs[i], costs), fab)
	}
	for i := 0; i < n; i++ {
		i := i
		k.Spawn("rank", func(p *sim.Proc) {
			pr := mpi.NewProcess(p, i, n, nics[i], model.NewCostModel(specs[i], costs))
			fn(mpi.World(pr))
		})
	}
	k.Run()
}

func f64s(vals ...float64) []byte { return mpi.Float64sToBytes(vals) }

func TestBcastAllSizesAndRoots(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 7, 8, 16, 33} {
		for _, root := range []int{0, size / 2, size - 1} {
			size, root := size, root
			payload := []float64{3.5, -1, 42, float64(root)}
			got := make([][]float64, size)
			runWorld(size, 5, func(w *mpi.Comm) {
				buf := make([]byte, 32)
				if w.Rank() == root {
					copy(buf, f64s(payload...))
				}
				Bcast(w, buf, 4, mpi.Float64, root)
				got[w.Rank()] = mpi.BytesToFloat64s(buf)
			})
			for r := 0; r < size; r++ {
				for i := range payload {
					if got[r][i] != payload[i] {
						t.Fatalf("size=%d root=%d rank=%d got %v", size, root, r, got[r])
					}
				}
			}
		}
	}
}

func TestReduceOpsAndTypes(t *testing.T) {
	size := 9
	type tc struct {
		op   mpi.Op
		dt   mpi.Datatype
		in   func(rank int) []byte
		want []byte
	}
	cases := []tc{
		{
			op: mpi.OpMax, dt: mpi.Float64,
			in:   func(r int) []byte { return f64s(float64(r), float64(-r)) },
			want: f64s(8, 0),
		},
		{
			op: mpi.OpMin, dt: mpi.Float64,
			in:   func(r int) []byte { return f64s(float64(r - 4)) },
			want: f64s(-4),
		},
		{
			op: mpi.OpBXor, dt: mpi.Byte,
			in:   func(r int) []byte { return []byte{1 << uint(r%8)} },
			want: []byte{0xFE},
		},
		{
			op: mpi.OpProd, dt: mpi.Float64,
			in:   func(r int) []byte { return f64s(2) },
			want: f64s(512),
		},
	}
	for ci, c := range cases {
		got := make([]byte, len(c.want))
		runWorld(size, int64(ci+1), func(w *mpi.Comm) {
			out := make([]byte, len(c.want))
			Reduce(w, c.in(w.Rank()), out, len(c.want)/c.dt.Size(), c.dt, c.op, 0)
			if w.Rank() == 0 {
				copy(got, out)
			}
		})
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("case %d (%v/%v): got % x want % x", ci, c.op, c.dt, got, c.want)
				break
			}
		}
	}
}

// TestReduceEqualsSequentialFold is the property test tying the tree
// reduction to a plain fold for random inputs, sizes and roots.
func TestReduceEqualsSequentialFold(t *testing.T) {
	f := func(sizeRaw, rootRaw uint8, seed int64, vals [6]int16) bool {
		size := int(sizeRaw%19) + 1
		root := int(rootRaw) % size
		count := 3
		var want [3]float64
		inputs := make([][]float64, size)
		for r := 0; r < size; r++ {
			inputs[r] = make([]float64, count)
			for i := 0; i < count; i++ {
				inputs[r][i] = float64(int(vals[(r+i)%len(vals)]) + r*i)
				want[i] += inputs[r][i]
			}
		}
		var got []float64
		runWorld(size, seed, func(w *mpi.Comm) {
			out := make([]byte, count*8)
			Reduce(w, f64s(inputs[w.Rank()]...), out, count, mpi.Float64, mpi.OpSum, root)
			if w.Rank() == root {
				got = mpi.BytesToFloat64s(out)
			}
		})
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGatherScatter keeps the name it had when it also checked Scatter,
// deleted with the other collectives no entry point reached.
func TestGatherScatter(t *testing.T) {
	size := 6
	root := 2
	gathered := make([]float64, 0)
	runWorld(size, 9, func(w *mpi.Comm) {
		// Gather rank-stamped pairs.
		in := f64s(float64(w.Rank()), float64(w.Rank()*10))
		var out []byte
		if w.Rank() == root {
			out = make([]byte, 16*size)
		}
		Gather(w, in, out, 2, mpi.Float64, root)
		if w.Rank() == root {
			gathered = mpi.BytesToFloat64s(out)
		}
	})
	for r := 0; r < size; r++ {
		if gathered[2*r] != float64(r) || gathered[2*r+1] != float64(r*10) {
			t.Fatalf("gather block %d = %v", r, gathered[2*r:2*r+2])
		}
	}
}

func TestScan(t *testing.T) {
	size := 7
	got := make([][]float64, size)
	runWorld(size, 8, func(w *mpi.Comm) {
		in := f64s(float64(w.Rank() + 1))
		out := make([]byte, 8)
		Scan(w, in, out, 1, mpi.Float64, mpi.OpSum)
		got[w.Rank()] = mpi.BytesToFloat64s(out)
	})
	for r := 0; r < size; r++ {
		want := float64((r + 1) * (r + 2) / 2)
		if got[r][0] != want {
			t.Fatalf("rank %d scan = %v, want %v", r, got[r][0], want)
		}
	}
}

// TestBarrierHoldsEveryone: no rank may leave the barrier before the
// last rank has entered it.
func TestBarrierHoldsEveryone(t *testing.T) {
	for _, size := range []int{2, 5, 8, 16} {
		size := size
		enter := make([]sim.Time, size)
		exit := make([]sim.Time, size)
		runWorld(size, 6, func(w *mpi.Comm) {
			r := w.Rank()
			// Stagger arrivals hard.
			w.Proc().P.Sleep(sim.Time(r*r) * 10 * time.Microsecond)
			enter[r] = w.Proc().P.Now()
			Barrier(w)
			exit[r] = w.Proc().P.Now()
		})
		lastEnter := enter[0]
		for _, e := range enter {
			if e > lastEnter {
				lastEnter = e
			}
		}
		for r := 0; r < size; r++ {
			if exit[r] < lastEnter {
				t.Fatalf("size %d: rank %d left the barrier at %v before last entry %v", size, r, exit[r], lastEnter)
			}
		}
	}
}

// TestBackToBackCollectivesInterleave mixes different collectives in
// sequence to check context isolation end to end.
func TestBackToBackCollectivesInterleave(t *testing.T) {
	size := 8
	var rootSum float64
	bcastOK := true
	runWorld(size, 12, func(w *mpi.Comm) {
		for iter := 0; iter < 5; iter++ {
			out := make([]byte, 8)
			Reduce(w, f64s(float64(w.Rank())), out, 1, mpi.Float64, mpi.OpSum, 0)
			if w.Rank() == 0 {
				rootSum = mpi.BytesToFloat64s(out)[0]
			}
			buf := make([]byte, 8)
			if w.Rank() == 3 {
				copy(buf, f64s(float64(iter)))
			}
			Bcast(w, buf, 1, mpi.Float64, 3)
			if mpi.BytesToFloat64s(buf)[0] != float64(iter) {
				bcastOK = false
			}
			Barrier(w)
		}
	})
	if rootSum != 28 {
		t.Errorf("root sum = %v, want 28", rootSum)
	}
	if !bcastOK {
		t.Error("bcast payload wrong in interleaved sequence")
	}
}

func TestReduceSingleRank(t *testing.T) {
	runWorld(1, 1, func(w *mpi.Comm) {
		out := make([]byte, 8)
		Reduce(w, f64s(5), out, 1, mpi.Float64, mpi.OpSum, 0)
		if mpi.BytesToFloat64s(out)[0] != 5 {
			t.Errorf("single-rank reduce = %v", mpi.BytesToFloat64s(out))
		}
	})
}

// TestReduceArgValidation: every bad argument panics, and with the
// message that names it — the root check must fire before anything walks
// a tree built from that root (which would say "bad tree args").
func TestReduceArgValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		call func(w *mpi.Comm)
		want string
	}{
		"bad count": {func(w *mpi.Comm) {
			Reduce(w, f64s(1), make([]byte, 8), 0, mpi.Float64, mpi.OpSum, 0)
		}, "coll: non-positive count 0"},
		"bad root": {func(w *mpi.Comm) {
			Reduce(w, f64s(1), make([]byte, 8), 1, mpi.Float64, mpi.OpSum, 9)
		}, "coll: root 9 out of range (size 1)"},
		"negative root": {func(w *mpi.Comm) {
			Reduce(w, f64s(1), make([]byte, 8), 1, mpi.Float64, mpi.OpSum, -1)
		}, "coll: root -1 out of range (size 1)"},
		"bad op": {func(w *mpi.Comm) {
			Reduce(w, f64s(1), make([]byte, 8), 1, mpi.Float64, mpi.OpBAnd, 0)
		}, "undefined for"},
		"short sendbuf": {func(w *mpi.Comm) {
			Reduce(w, make([]byte, 4), make([]byte, 8), 1, mpi.Float64, mpi.OpSum, 0)
		}, "coll: sendbuf 4 bytes < 8"},
		"tree of another size": {func(w *mpi.Comm) {
			ReduceOn(w, Binomial(0, 2), mpi.CtxReduce, 1, f64s(1), make([]byte, 8), 1, mpi.Float64, mpi.OpSum, false)
		}, "coll: tree for size 2 on a size-1 communicator"},
	} {
		name, tc := name, tc
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("%s: panic %q, want one containing %q", name, msg, tc.want)
				}
			}()
			runWorld(1, 1, tc.call)
		}()
	}
}
