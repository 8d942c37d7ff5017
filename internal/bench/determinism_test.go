package bench

import (
	"strings"
	"testing"
	"time"
)

// renderAll regenerates every figure and ablation table at the given
// worker count and renders them (text + CSV) into one string. Sizes and
// iteration counts are reduced; what matters here is that the full set
// of grid shapes runs through the sweep engine.
func renderAll(t *testing.T, workers int) string {
	t.Helper()
	o := Config{Iters: 2, Seed: 7}
	var tabs []*Table
	tabs = append(tabs, Fig6(o, workers), Fig7(o, workers), Fig8(o, workers))
	hetero, homog := Fig9(o, workers)
	tabs = append(tabs, hetero, homog, Fig10(o, workers))
	tabs = append(tabs,
		ScaleProjection([]int{8, 16}, 200*time.Microsecond, 4, o, workers),
		AblationDelay(8, 4, 100*time.Microsecond, o, workers),
		AblationSignalCost(8, 4, 200*time.Microsecond, o, workers),
		AblationHeterogeneity(8, 4, o, workers),
		AblationRendezvousAB(4, 300*time.Microsecond, o, workers),
		AblationNICReduce(8, 200*time.Microsecond, o, workers),
	)
	var b strings.Builder
	for _, tab := range tabs {
		tab.Write(&b)
		tab.WriteCSV(&b)
	}
	return b.String()
}

// TestParallelDeterminism is the sweep engine's core guarantee: every
// figure and ablation table must be byte-identical whether the grid ran
// serially or on an 8-worker pool, and repeated same-seed runs must
// match exactly.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure set in -short mode")
	}
	serial := renderAll(t, 1)
	parallel := renderAll(t, 8)
	if serial != parallel {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			firstDiff(serial, parallel), firstDiff(parallel, serial))
	}
	again := renderAll(t, 8)
	if parallel != again {
		t.Fatal("repeated same-seed parallel runs differ")
	}
}

// firstDiff returns a window around the first byte where a and b differ.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo, hi := i-120, i+120
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}
