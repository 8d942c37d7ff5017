// Package abred is a Go reproduction of "Application-Bypass Reduction
// for Large-Scale Clusters" (Wagner, Buntinas, Brightwell, Panda —
// IEEE CLUSTER 2003): an MPI reduction that tolerates process skew by
// splitting its work into a synchronous part inside the collective call
// and an asynchronous part driven by NIC signals, so that internal tree
// nodes never block waiting for late children.
//
// The package bundles a complete virtual cluster: a deterministic
// discrete-event simulation kernel, a Myrinet-2000-like fabric, a
// GM-like NIC layer with a programmable control program and host
// signals, an MPICH-like point-to-point and collective stack, and the
// paper's application-bypass engine with its extensions (split-phase
// reduction, application-bypass broadcast, NIC-based reduction).
//
// A minimal program:
//
//	cl := abred.NewCluster(abred.WithNodes(8))
//	cl.Run(func(r *abred.Rank) {
//		in := []float64{float64(r.Rank()), 1, 2, 3}
//		sum := r.Reduce(in, abred.Sum, 0) // application-bypass
//		if r.Rank() == 0 {
//			fmt.Println("sum:", sum)
//		}
//		r.Barrier()
//	})
//
// Everything runs in virtual time: Run executes one coroutine per rank
// under a strict one-at-a-time scheduler, so results (including every
// reported duration) are bit-for-bit reproducible for a given seed.
package abred
