// Command abtrace renders the paper's Fig. 2 from a live simulation:
// the time line of a skewed four-process reduction, first with the
// default blocking implementation, then with application bypass. Node 0
// is the root, nodes 1 and 3 are leaves, node 2 is internal; node 3 is
// late, so node 2 either waits for it inside MPI_Reduce (default) or
// returns and finishes in an asynchronous handler (bypass).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/fabric"
	"abred/internal/model"
	"abred/internal/mpi"
	"abred/internal/sim"
	"abred/internal/topo"
	"abred/internal/trace"
)

func main() {
	lateBy := flag.Duration("late", 250*time.Microsecond, "how late node 3 enters the reduction")
	width := flag.Int("width", 96, "timeline width in characters")
	count := flag.Int("count", 4, "message elements (double words)")
	topoFlag := flag.String("topo", "crossbar", "interconnect: crossbar, fattree:K or leafspine:R")
	jsonPath := flag.String("json", "", "also write the bypass run as Chrome trace-event JSON\n(open in chrome://tracing; includes per-hop fabric spans on routed topologies)")
	flag.Parse()

	// A bad flag value is a usage error: stderr and exit status 2,
	// before the first line of the timeline.
	for _, f := range []struct {
		name     string
		v, floor int
	}{{"count", *count, 1}, {"width", *width, 1}} {
		if f.v < f.floor {
			fmt.Fprintf(os.Stderr, "abtrace: -%s %d: must be at least %d\n", f.name, f.v, f.floor)
			os.Exit(2)
		}
	}
	if *lateBy < 0 {
		fmt.Fprintf(os.Stderr, "abtrace: -late %v: must be at least 0s\n", *lateBy)
		os.Exit(2)
	}
	spec, err := topo.ParseSpec(*topoFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abtrace:", err)
		os.Exit(2)
	}

	for _, ab := range []bool{false, true} {
		name := "(a) Non-Application-Bypass"
		if ab {
			name = "(b) Application-Bypass"
		}
		fmt.Printf("%s — node 3 enters %v late\n", name, *lateBy)
		rec := runOnce(ab, *lateBy, *count, *width, spec)
		fmt.Println()
		if ab && *jsonPath != "" {
			if err := writeChromeFile(*jsonPath, rec); err != nil {
				fmt.Fprintln(os.Stderr, "abtrace:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote Chrome trace to %s (%d spans, %d fabric hops)\n",
				*jsonPath, len(rec.Spans), len(rec.Hops))
		}
	}
}

func writeChromeFile(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runOnce(ab bool, lateBy time.Duration, count, width int, spec topo.Spec) *trace.Recorder {
	rec := &trace.Recorder{}
	cl := cluster.New(cluster.Config{Specs: model.Uniform(4), Seed: 2003, Topo: spec})
	cl.Fabric.OnHop = func(fr fabric.Frame, link int32, start, end sim.Time) {
		rec.AddHop(fr.Src, fr.Dst, link, start, end)
	}
	cl.Run(func(n *cluster.Node, w *mpi.Comm) {
		node := n.ID
		n.Engine.SetTrace(func(kind byte, start, end sim.Time) {
			rec.Add(node, kind, start, end, "")
		})
		in := make([]byte, count*8)
		out := make([]byte, count*8)

		if n.ID == 3 {
			t0 := n.Proc.Now()
			n.Proc.SpinInterruptible(lateBy)
			rec.Add(node, trace.KindCompute, t0, n.Proc.Now(), "skew")
		}
		t0 := n.Proc.Now()
		if ab {
			n.Engine.Reduce(w, in, out, count, mpi.Float64, mpi.OpSum, 0)
		} else {
			coll.Reduce(w, in, out, count, mpi.Float64, mpi.OpSum, 0)
			rec.Add(node, trace.KindSync, t0, n.Proc.Now(), "reduce")
		}
		// Post-reduction computation: where bypass pays off — the
		// asynchronous handler (A) interrupts it briefly instead of the
		// whole wait happening inside Reduce (R).
		t1 := n.Proc.Now()
		n.Proc.SpinInterruptible(lateBy + 100*time.Microsecond)
		rec.Add(n.ID, trace.KindCompute, t1, n.Proc.Now(), "compute")
	})
	rec.Render(os.Stdout, 4, width)
	return rec
}
