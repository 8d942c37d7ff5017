package mpi

import "testing"

func TestSubCommTranslation(t *testing.T) {
	runRanks(t, 6, func(pr *Process) {
		members := []int{1, 3, 5}
		if pr.Rank()%2 == 0 {
			return
		}
		c := Sub(pr, members, 3)
		if c.IsWorld() {
			t.Error("sub-communicator claims to be world")
		}
		if c.Size() != 3 {
			t.Errorf("Size() = %d, want 3", c.Size())
		}
		if want := pr.Rank() / 2; c.Rank() != want {
			t.Errorf("Rank() = %d, want %d", c.Rank(), want)
		}
		for i, w := range members {
			if c.World(i) != w {
				t.Errorf("World(%d) = %d, want %d", i, c.World(i), w)
			}
		}
		// Context bases must differ from the world's and between ids.
		w := World(pr)
		if c.Ctx(CtxReduce) == w.Ctx(CtxReduce) {
			t.Error("sub-communicator shares the world reduce context")
		}
	})
}

func TestSubCommP2P(t *testing.T) {
	runRanks(t, 4, func(pr *Process) {
		if pr.Rank() == 0 {
			return // not a member: no traffic touches it
		}
		c := Sub(pr, []int{1, 2, 3}, 1)
		// Local rank 0 (world 1) sends to local rank 2 (world 3).
		switch c.Rank() {
		case 0:
			c.Send(2, 5, []byte{7})
		case 2:
			buf := make([]byte, 1)
			st := c.Recv(0, 5, buf)
			if buf[0] != 7 || st.Source != 1 {
				t.Errorf("recv got %v from world %d", buf, st.Source)
			}
		}
	})
}

func TestSubCommValidation(t *testing.T) {
	expectPanic := func(name string, fn func(pr *Process)) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		runRanks(t, 4, func(pr *Process) {
			if pr.Rank() == 0 {
				fn(pr)
			}
		})
	}
	expectPanic("empty members", func(pr *Process) { Sub(pr, nil, 1) })
	expectPanic("not ascending", func(pr *Process) { Sub(pr, []int{0, 2, 1}, 1) })
	expectPanic("duplicate member", func(pr *Process) { Sub(pr, []int{0, 0}, 1) })
	expectPanic("out of range", func(pr *Process) { Sub(pr, []int{0, 9}, 1) })
	expectPanic("caller not a member", func(pr *Process) { Sub(pr, []int{1, 2}, 1) })
	expectPanic("negative id", func(pr *Process) { Sub(pr, []int{0, 1}, -1) })
	expectPanic("id past context space", func(pr *Process) { Sub(pr, []int{0, 1}, 1<<16) })
}
