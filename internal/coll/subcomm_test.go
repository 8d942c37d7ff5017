package coll

import (
	"testing"

	"abred/internal/mpi"
)

// runSub runs two disjoint sub-communicators concurrently over one
// world: even world ranks form job 0, odd ranks job 1, each with its
// own context id. fn receives the sub-communicator plus the job index.
func runSub(n int, seed int64, fn func(c *mpi.Comm, job int)) {
	var even, odd []int
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			even = append(even, i)
		} else {
			odd = append(odd, i)
		}
	}
	runWorld(n, seed, func(w *mpi.Comm) {
		pr := w.Proc()
		if pr.Rank()%2 == 0 {
			fn(mpi.Sub(pr, even, 1), 0)
		} else {
			fn(mpi.Sub(pr, odd, 2), 1)
		}
	})
}

// TestSubCommReduce runs concurrent reductions on two disjoint
// sub-communicators: each job's sum covers exactly its own members,
// and results land on each job's local root (a different world rank).
func TestSubCommReduce(t *testing.T) {
	for _, n := range []int{2, 5, 8, 17} {
		sums := make([]float64, 2)
		want := make([]float64, 2)
		for i := 0; i < n; i++ {
			want[i%2] += float64(i)
		}
		runSub(n, 21, func(c *mpi.Comm, job int) {
			world := c.World(c.Rank())
			out := make([]byte, 8)
			root := c.Size() - 1
			Reduce(c, f64s(float64(world)), out, 1, mpi.Float64, mpi.OpSum, root)
			if c.Rank() == root {
				sums[job] = mpi.BytesToFloat64s(out)[0]
			}
		})
		for job := 0; job < 2; job++ {
			if sums[job] != want[job] {
				t.Fatalf("n=%d job %d sum = %v, want %v", n, job, sums[job], want[job])
			}
		}
	}
}

// TestSubCommMixedCollectives interleaves bcast, barrier, scan and
// gather on concurrent sub-communicators — the full context
// isolation the tenancy layer relies on.
func TestSubCommMixedCollectives(t *testing.T) {
	n := 12
	sz := n / 2
	scans := make([][]float64, n)
	gathers := make([][]float64, 2)
	bad := make([]bool, n)
	runSub(n, 33, func(c *mpi.Comm, job int) {
		for iter := 0; iter < 3; iter++ {
			buf := make([]byte, 8)
			if c.Rank() == 0 {
				copy(buf, f64s(float64(100*job+iter)))
			}
			Bcast(c, buf, 1, mpi.Float64, 0)
			if mpi.BytesToFloat64s(buf)[0] != float64(100*job+iter) {
				bad[c.World(c.Rank())] = true
			}
			Barrier(c)
		}
		out := make([]byte, 8)
		Scan(c, f64s(float64(c.Rank()+1)), out, 1, mpi.Float64, mpi.OpSum)
		scans[c.World(c.Rank())] = mpi.BytesToFloat64s(out)

		var g []byte
		if c.Rank() == 0 {
			g = make([]byte, 8*c.Size())
		}
		Gather(c, f64s(float64(c.World(c.Rank()))), g, 1, mpi.Float64, 0)
		if c.Rank() == 0 {
			gathers[job] = mpi.BytesToFloat64s(g)
		}
	})
	for w := 0; w < n; w++ {
		if bad[w] {
			t.Fatalf("world rank %d saw a wrong bcast payload", w)
		}
		local := w / 2
		if want := float64((local + 1) * (local + 2) / 2); scans[w][0] != want {
			t.Fatalf("world rank %d scan = %v, want %v", w, scans[w][0], want)
		}
	}
	for job := 0; job < 2; job++ {
		for i := 0; i < sz; i++ {
			if want := float64(2*i + job); gathers[job][i] != want {
				t.Fatalf("job %d gather[%d] = %v, want %v", job, i, gathers[job][i], want)
			}
		}
	}
}
