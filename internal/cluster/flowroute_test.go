package cluster

import (
	"testing"

	"abred/internal/fabric"
	"abred/internal/model"
	"abred/internal/mpi"
	"abred/internal/sim"
	"abred/internal/topo"
)

// TestFlowRoutesMatchPacketFabric pins the flow engine's link model to
// the packet fabric: for pairs inside one leaf, across leaves within a
// pod, and across pod boundaries, the links a flow occupies
// (Net.RouteLinks minus its inject/eject endpoints) are exactly the
// inter-switch links the packet fabric's OnHop hook records for a frame
// between the same ranks — so pod-crossing traffic contends on the same
// uplinks in both engines, and the LP partition map (topo.Partition)
// splits flows and frames identically.
func TestFlowRoutesMatchPacketFabric(t *testing.T) {
	const n = 64
	spec := topo.Spec{Kind: topo.FatTree, K: 8} // m=4: 3 levels, 4 pods of 16
	pairs := []struct {
		name     string
		src, dst int
	}{
		{"same-leaf", 0, 1},
		{"same-pod", 0, 5},
		{"cross-pod", 0, 63},
		{"cross-pod-mid", 17, 48},
	}

	// Flow side: the route each flow would occupy, with the per-node
	// inject/eject pair stripped and the topology-link offset removed.
	fcl := New(Config{Specs: model.Uniform(n), Seed: 1, Topo: spec, Engine: EngineFlow})
	defer fcl.Close()
	tp := fcl.Topo
	flowRoutes := make([][]int32, len(pairs))
	for i, pr := range pairs {
		raw := fcl.FlowM.Net.RouteLinks(nil, pr.src, pr.dst)
		if len(raw) < 2 || raw[0] != int32(2*pr.src) || raw[len(raw)-1] != int32(2*pr.dst+1) {
			t.Fatalf("%s: RouteLinks = %v, want inject %d first and eject %d last",
				pr.name, raw, 2*pr.src, 2*pr.dst+1)
		}
		links := make([]int32, 0, len(raw)-2)
		for _, l := range raw[1 : len(raw)-1] {
			links = append(links, l-int32(2*n))
		}
		flowRoutes[i] = links
	}

	// Packet side: send one eager message per pair and record the
	// inter-switch links its frames traverse. A cluster runs one program
	// per Reset, and Reset clears OnHop, so each pair after the first
	// resets before its hook goes in.
	pcfg := Config{Specs: model.Uniform(n), Seed: 1, Topo: spec}
	pcl := New(pcfg)
	defer pcl.Close()
	for i, pr := range pairs {
		pr := pr
		if i > 0 {
			pcl.Reset(pcfg)
		}
		var recorded []int32
		pcl.Fabric.OnHop = func(fr fabric.Frame, link int32, start, end sim.Time) {
			if fr.Src == pr.src && fr.Dst == pr.dst {
				recorded = append(recorded, link)
			}
		}
		pcl.Run(func(nd *Node, w *mpi.Comm) {
			switch nd.ID {
			case pr.src:
				w.Send(pr.dst, 7, []byte{1})
			case pr.dst:
				w.Recv(pr.src, 7, make([]byte, 1))
			}
		})
		pcl.Fabric.OnHop = nil

		want := flowRoutes[i]
		if len(want) == 0 {
			if len(recorded) != 0 {
				t.Errorf("%s: packet frames crossed links %v, flow route has none", pr.name, recorded)
			}
			continue
		}
		// Every frame of the message walks the same route, so the
		// recording is 1+ repetitions of it.
		if len(recorded) == 0 || len(recorded)%len(want) != 0 {
			t.Fatalf("%s: recorded %v, not a repetition of flow route %v", pr.name, recorded, want)
		}
		for j, l := range recorded {
			if l != want[j%len(want)] {
				t.Fatalf("%s: hop %d took link %d, flow route %v", pr.name, j, l, want)
			}
		}
	}

	// Pod-boundary structure: pairs in different LP partitions climb to
	// the top tier (2*(levels-1) links); pairs inside one pod never do.
	pmap, parts := tp.Partition(tp.Pods())
	if parts < 2 {
		t.Fatalf("Partition degenerated to %d parts", parts)
	}
	topLinks := 2 * (tp.Levels() - 1)
	for i, pr := range pairs {
		cross := pmap[pr.src] != pmap[pr.dst]
		if cross && len(flowRoutes[i]) != topLinks {
			t.Errorf("%s crosses pods but occupies %d links, want %d", pr.name, len(flowRoutes[i]), topLinks)
		}
		if !cross && len(flowRoutes[i]) >= topLinks {
			t.Errorf("%s stays in a pod but occupies %d links", pr.name, len(flowRoutes[i]))
		}
	}
}
