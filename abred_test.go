package abred

import (
	"slices"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	cl := NewCluster(WithNodes(8), WithSeed(1))
	if cl.Size() != 8 {
		t.Fatalf("size = %d", cl.Size())
	}
	var sum []float64
	cl.Run(func(r *Rank) {
		in := []float64{float64(r.Rank()), 1}
		got := r.Reduce(in, Sum, 0)
		r.Compute(500 * time.Microsecond)
		r.Barrier()
		if r.Rank() == 0 {
			sum = got
		} else if got != nil {
			t.Errorf("non-root rank %d got a result: %v", r.Rank(), got)
		}
	})
	if sum[0] != 28 || sum[1] != 8 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestAllOpsOnFacade(t *testing.T) {
	cl := NewCluster(WithHomogeneousNodes(6), WithSeed(2))
	cl.Run(func(r *Rank) {
		n := float64(r.Rank())

		if v := r.ReduceNoBypass([]float64{n}, Max, 3); r.Rank() == 3 && v[0] != 5 {
			t.Errorf("max = %v", v)
		}
		if v := r.Allreduce([]float64{1}, Sum); v[0] != 6 {
			t.Errorf("allreduce = %v", v)
		}
		if v := r.Bcast([]float64{7, 8}, 2); v[0] != 7 || v[1] != 8 {
			t.Errorf("bcast = %v", v)
		}
		if v := r.BcastNoBypass([]float64{9}, 1); v[0] != 9 {
			t.Errorf("bcast-nobypass = %v", v)
		}
		if v := r.Scan([]float64{1}, Sum); v[0] != float64(r.Rank()+1) {
			t.Errorf("scan = %v", v)
		}
		g := r.Gather([]float64{n}, 0)
		if r.Rank() == 0 {
			for i := 0; i < 6; i++ {
				if g[i] != float64(i) {
					t.Errorf("gather = %v", g)
					break
				}
			}
		} else if g != nil {
			t.Error("gather leaked to non-root")
		}
		r.Barrier()
	})
}

func TestFacadePointToPoint(t *testing.T) {
	cl := NewCluster(WithNodes(2), WithSeed(3))
	cl.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 5, []float64{1.25, -2})
		} else {
			got := r.Recv(0, 5, 2)
			if got[0] != 1.25 || got[1] != -2 {
				t.Errorf("recv = %v", got)
			}
		}
	})
}

func TestFacadeIReduceOverlap(t *testing.T) {
	cl := NewCluster(WithNodes(8), WithSeed(4))
	cl.Run(func(r *Rank) {
		if r.Rank() != 0 {
			r.Compute(time.Duration(r.Rank()) * 40 * time.Microsecond)
		}
		fut := r.IReduce([]float64{2}, Prod, 0)
		r.Compute(800 * time.Microsecond)
		v := fut.Wait()
		if r.Rank() == 0 {
			if v[0] != 256 {
				t.Errorf("ireduce prod = %v", v)
			}
		} else if v != nil {
			t.Error("non-root got a result")
		}
		if !fut.Done() {
			t.Error("future not done after Wait")
		}
		r.Barrier()
	})
}

func TestFacadeReduceOnNIC(t *testing.T) {
	cl := NewCluster(WithNodes(8), WithSeed(5))
	cl.Run(func(r *Rank) {
		v := r.ReduceOnNIC([]float64{float64(r.Rank())}, Sum, 0)
		r.Compute(time.Millisecond)
		r.Barrier()
		if r.Rank() == 0 && v[0] != 28 {
			t.Errorf("nic reduce = %v", v)
		}
	})
	if cl.EngineMetrics(1).NICReductions != 1 {
		t.Error("NIC metrics missing")
	}
}

func TestFacadeIAllreduceAndIBarrier(t *testing.T) {
	cl := NewCluster(WithNodes(8), WithSeed(12))
	cl.Run(func(r *Rank) {
		if r.Rank()%3 == 0 {
			r.Compute(time.Duration(r.Rank()) * 30 * time.Microsecond)
		}
		fut := r.IAllreduce([]float64{1, float64(r.Rank())}, Sum)
		r.Compute(2 * time.Millisecond)
		v := fut.Wait()
		if v[0] != 8 || v[1] != 28 {
			t.Errorf("rank %d iallreduce = %v", r.Rank(), v)
		}

		b := r.IBarrier()
		r.Compute(2 * time.Millisecond)
		if !b.Done() {
			b.Wait()
		}
		r.Barrier()
	})
}

func TestDeterministicRuns(t *testing.T) {
	run := func() time.Duration {
		cl := NewCluster(WithPaperCluster(), WithSeed(77))
		return cl.Run(func(r *Rank) {
			for i := 0; i < 5; i++ {
				r.Reduce([]float64{1, 2, 3, 4}, Sum, 0)
				r.Compute(300 * time.Microsecond)
				r.Barrier()
			}
		})
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical seeds diverged: %v vs %v", a, b)
	}
}

// TestMultiPhaseRun: each phase of a phased program computes its own
// result and runs exactly as it would on a new cluster built with the
// same options, so the duration it returns is that phase's alone.
func TestMultiPhaseRun(t *testing.T) {
	opts := []Option{WithNodes(4), WithSeed(6)}
	phase := func(v float64, got *[]float64) func(r *Rank) {
		return func(r *Rank) {
			if res := r.Reduce([]float64{v}, Sum, 0); r.Rank() == 0 {
				*got = res
			}
			r.Barrier()
		}
	}
	cl := NewCluster(opts...)
	var first, second, scratch []float64
	d1 := cl.Run(phase(1, &first))
	d2 := cl.Run(phase(2, &second))
	if first[0] != 4 || second[0] != 8 {
		t.Errorf("phases = %v, %v", first, second)
	}
	for i, d := range []time.Duration{d1, d2} {
		if want := NewCluster(opts...).Run(phase(float64(i+1), &scratch)); d != want {
			t.Errorf("phase %d took %v, the same program on a new cluster %v", i+1, d, want)
		}
	}
}

func TestComputeInterruptible(t *testing.T) {
	cl := NewCluster(WithNodes(4), WithSeed(7))
	cl.Run(func(r *Rank) {
		if r.Rank() == 3 {
			r.Compute(400 * time.Microsecond)
		}
		r.Reduce([]float64{1}, Sum, 0)
		elapsed := r.Compute(time.Millisecond)
		if r.Rank() == 2 && elapsed <= time.Millisecond {
			t.Error("internal rank's compute was not extended by async handling")
		}
		r.Barrier()
	})
}

func TestExitDelayOption(t *testing.T) {
	cl := NewCluster(WithNodes(8), WithSeed(8))
	cl.Run(func(r *Rank) {
		r.SetExitDelay(5*time.Microsecond, time.Microsecond)
		if r.Rank() == 7 {
			r.Compute(10 * time.Microsecond)
		}
		v := r.Reduce([]float64{1}, Sum, 0)
		r.Compute(500 * time.Microsecond)
		r.Barrier()
		if r.Rank() == 0 && v[0] != 8 {
			t.Errorf("reduce with delay = %v", v)
		}
		r.SetExitDelay(0, 0) // back to the paper default
	})
}

func TestOptionsCombine(t *testing.T) {
	cl := NewCluster(
		WithSpecs([]NodeSpec{{Class: "x", CPUMHz: 500, PCIMBps: 100, LANaiMHz: 100}, {Class: "x", CPUMHz: 500, PCIMBps: 100, LANaiMHz: 100}}),
		WithSeed(9),
		WithSignalCost(20*time.Microsecond),
		WithEagerThreshold(1024),
	)
	if cl.Size() != 2 {
		t.Fatalf("size = %d", cl.Size())
	}
	cl.Run(func(r *Rank) {
		v := r.Reduce([]float64{1}, Sum, 0)
		if r.Rank() == 0 && v[0] != 2 {
			t.Errorf("reduce = %v", v)
		}
	})
}

func TestFacadeRendezvousBypass(t *testing.T) {
	cl := NewCluster(WithNodes(4), WithSeed(13))
	cl.Run(func(r *Rank) {
		r.EnableRendezvousBypass()
		in := make([]float64, 4096) // 32 KiB, beyond the eager limit
		for i := range in {
			in[i] = float64(r.Rank())
		}
		if r.Rank() == 3 {
			r.Compute(500 * time.Microsecond)
		}
		v := r.Reduce(in, Sum, 0)
		r.Compute(8 * time.Millisecond)
		r.Barrier()
		if r.Rank() == 0 && (v[0] != 6 || v[4095] != 6) {
			t.Errorf("large reduce = %v...%v", v[0], v[4095])
		}
	})
	if cl.EngineMetrics(2).RendezvousChildren == 0 {
		t.Error("rendezvous bypass not engaged")
	}
	if cl.EngineMetrics(2).SizeFallbacks != 0 {
		t.Error("fell back despite rendezvous bypass")
	}
}

// TestFacadeLossyReduce: a reduction over a lossy fabric still returns
// the exact result (GM reliability recovers every drop), and identical
// fault seeds reproduce the run bit for bit.
func TestFacadeLossyReduce(t *testing.T) {
	run := func() (time.Duration, []float64) {
		cl := NewCluster(WithNodes(8), WithSeed(11), WithLoss(0.05), WithFaultSeed(7))
		var sum []float64
		end := cl.Run(func(r *Rank) {
			for i := 0; i < 3; i++ {
				if v := r.Reduce([]float64{1, float64(r.Rank())}, Sum, 0); r.Rank() == 0 {
					sum = v
				}
				r.Compute(300 * time.Microsecond)
				r.Barrier()
			}
		})
		return end, sum
	}
	end1, sum1 := run()
	if sum1[0] != 8 || sum1[1] != 28 {
		t.Fatalf("lossy reduce = %v, want exact [8 28]", sum1)
	}
	end2, _ := run()
	if end1 != end2 {
		t.Errorf("identical fault seeds diverged: %v vs %v", end1, end2)
	}
	// A different fault seed drops different frames and lands on a
	// different virtual end time.
	cl := NewCluster(WithNodes(8), WithSeed(11), WithLoss(0.05), WithFaultSeed(8))
	end3 := cl.Run(func(r *Rank) {
		for i := 0; i < 3; i++ {
			r.Reduce([]float64{1, float64(r.Rank())}, Sum, 0)
			r.Compute(300 * time.Microsecond)
			r.Barrier()
		}
	})
	if end3 == end1 {
		t.Log("note: different fault seeds produced the same end time (possible, not a failure)")
	}
}

func TestCPUTimeAccounting(t *testing.T) {
	cl := NewCluster(WithNodes(2), WithSeed(10))
	cl.Run(func(r *Rank) {
		before := r.CPUTime()
		r.Compute(100 * time.Microsecond)
		if got := r.CPUTime() - before; got < 100*time.Microsecond {
			t.Errorf("cpu time = %v, want ≥100µs", got)
		}
		if r.Now() <= 0 {
			t.Error("virtual clock did not advance")
		}
	})
}

// TestFacadeTable drives every exported method on clusters built from
// every option and checks each value against its closed form in the
// rank count n, then reads the engine counters of a second Run on the
// same cluster and closes it.
func TestFacadeTable(t *testing.T) {
	spec := NodeSpec{Class: "x", CPUMHz: 500, PCIMBps: 100, LANaiMHz: 100}
	ends := make(map[string]time.Duration)
	for _, row := range []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"homogeneous", []Option{WithHomogeneousNodes(5), WithSeed(3)}},
		{"paper32", []Option{WithPaperCluster()}},
		{"specs", []Option{WithSpecs([]NodeSpec{spec, spec, spec}), WithSignalCost(20 * time.Microsecond), WithEagerThreshold(1024)}},
		{"lossy", []Option{WithNodes(8), WithLoss(0.02), WithFaultSeed(9)}},
		// The first frame rank 1 sends its parent is lost; GM resends it.
		{"scripted", []Option{WithNodes(8), WithFault(FaultConfig{Scripts: []FaultScript{{Src: 1, Dst: 0, Nth: 1}}})}},
	} {
		cl := NewCluster(row.opts...)
		n := cl.Size()
		fn, tri := float64(n), float64(n*(n-1)/2)
		ends[row.name] = cl.Run(func(r *Rank) {
			me := float64(r.Rank())
			check := func(what string, got []float64, want ...float64) {
				if !slices.Equal(got, want) {
					t.Errorf("%s: rank %d %s = %v, want %v", row.name, r.Rank(), what, got, want)
				}
			}
			// atRoot is what a rooted collective returns: want at root,
			// nil elsewhere.
			atRoot := func(root int, want ...float64) []float64 {
				if r.Rank() != root {
					return nil
				}
				return want
			}
			nonzero := 1.0
			if r.Rank() == 0 {
				nonzero = 0
			}

			check("allreduce", r.Allreduce([]float64{me, 1}, Sum), tri, fn)
			check("min", r.Reduce([]float64{me + 1}, Min, 0), atRoot(0, 1)...)
			check("max", r.ReduceNoBypass([]float64{me}, Max, n-1), atRoot(n-1, fn-1)...)
			check("land", r.Reduce([]float64{nonzero}, LAnd, 0), atRoot(0, 0)...)
			check("lor", r.Reduce([]float64{nonzero}, LOr, 0), atRoot(0, 1)...)
			check("prod", r.Reduce([]float64{2}, Prod, 0), atRoot(0, float64(uint64(1)<<n))...)
			check("bcast", r.Bcast([]float64{7, 8}, n-1), 7, 8)
			check("bcast-nobypass", r.BcastNoBypass([]float64{9}, 0), 9)
			check("scan", r.Scan([]float64{1}, Sum), me+1)
			all := make([]float64, n)
			for i := range all {
				all[i] = float64(i)
			}
			check("gather", r.Gather([]float64{me}, 0), atRoot(0, all...)...)

			fut := r.IAllreduce([]float64{1, me}, Sum)
			r.Compute(time.Millisecond)
			check("iallreduce", fut.Wait(), fn, tri)
			bar := r.IBarrier()
			bar.Wait()
			if !fut.Done() || !bar.Done() {
				t.Errorf("%s: rank %d future not done after Wait", row.name, r.Rank())
			}

			check("nic", r.ReduceOnNIC([]float64{me}, Sum, 0), atRoot(0, tri)...)
			r.Compute(time.Millisecond)
			r.Barrier()

			r.SetExitDelay(5*time.Microsecond, time.Microsecond)
			check("exit-delay", r.Reduce([]float64{1}, Sum, 0), atRoot(0, fn)...)
			r.SetExitDelay(0, 0)

			before := r.CPUTime()
			r.Compute(100 * time.Microsecond)
			if got := r.CPUTime() - before; got < 100*time.Microsecond {
				t.Errorf("%s: rank %d cpu time over a 100µs compute = %v", row.name, r.Rank(), got)
			}
			r.Barrier()
		})

		// A second program on the same cluster starts from the
		// just-built state: its counters hold its three reductions, each
		// counted once per rank as a root, internal or leaf instance,
		// and nothing of the first program's NIC reduction.
		instances := func(m Metrics) uint64 { return m.RootReductions + m.ABReductions + m.LeafReductions }
		cl.Run(func(r *Rank) {
			for i := 0; i < 3; i++ {
				r.Reduce([]float64{1}, Sum, 0)
				r.Compute(200 * time.Microsecond)
				r.Barrier()
			}
		})
		for i := range n {
			if m := cl.EngineMetrics(i); instances(m) != 3 || m.NICReductions != 0 {
				t.Errorf("%s: rank %d counted %d reductions in the second run and %d on the NIC, want 3 and 0",
					row.name, i, instances(m), m.NICReductions)
			}
		}
		cl.Close()
	}
	// Same cluster, same seed: the one scripted loss costs a GM
	// retransmission timeout and nothing else.
	if ends["scripted"] <= ends["default"] {
		t.Errorf("scripted drop ended at %v, clean run at %v: the lost frame cost no time", ends["scripted"], ends["default"])
	}
}
