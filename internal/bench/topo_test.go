package bench

import (
	"testing"
	"time"

	"abred/internal/topo"
)

var benchFatTree = topo.Spec{Kind: topo.FatTree, K: 4}

func TestTopoSweepStructure(t *testing.T) {
	tab := TopoSweep([]int{4, 8}, 200*time.Microsecond, 4,
		Config{Iters: tiny, Seed: 1, Topo: benchFatTree}, 0)
	checkTable(t, tab, 2, 10)
	if tab.X[0] != 4 || tab.X[1] != 8 {
		t.Errorf("node axis %v", tab.X)
	}
}

// TestTopoSweepRoutedCostsVisible: the sweep must actually surface the
// routed fabric — CPU on the fat tree differs from the crossbar, and
// the waits column is live. Contention needs flows to the same host to
// overlap in time, which binomial rounds and D-mod-k uplink spreading
// make rare at small scale: 4 KiB frames (~16 µs of wire) under a
// 200 µs skew spread are the smallest workload where the root's
// down-path reliably queues within 20 iterations at this seed.
func TestTopoSweepRoutedCostsVisible(t *testing.T) {
	tab := TopoSweep([]int{8}, 200*time.Microsecond, 512,
		Config{Iters: 20, Seed: 77, Topo: benchFatTree}, 0)
	row := tab.Rows[0]
	if row[0] == row[3] && row[1] == row[4] {
		t.Error("fat-tree CPU identical to crossbar: routing not applied")
	}
	if row[8] == 0 {
		t.Error("no uplink waits recorded on the 8-node fat tree")
	}
}

// TestTopoSweepDeterministic: same seed, same table — including the
// contention counters — regardless of worker count.
func TestTopoSweepDeterministic(t *testing.T) {
	mk := func(workers int) *Table {
		return TopoSweep([]int{4, 8}, 200*time.Microsecond, 4,
			Config{Iters: tiny, Seed: 7, Topo: benchFatTree}, workers)
	}
	a, b := mk(1), mk(4)
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("cell [%d][%d] differs across worker counts: %v vs %v",
					i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

// TestFiguresAcceptTopo: every paper figure still runs (and keeps its
// shape) when the base Config carries a routed topology.
func TestFiguresAcceptTopo(t *testing.T) {
	tab := Fig6(Config{Iters: tiny, Seed: 1, Topo: benchFatTree}, 0)
	checkTable(t, tab, 11, 9)
}
