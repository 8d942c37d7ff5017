package bench

import (
	"strings"
	"testing"
	"time"

	"abred/internal/coll"
)

// tiny keeps the full-sweep structural tests fast; statistical claims
// are covered by shapes_test.go at higher iteration counts.
const tiny = 3

func checkTable(t *testing.T, tab *Table, rows, cols int) {
	t.Helper()
	if tab.Title == "" || tab.XName == "" {
		t.Error("table missing title or x name")
	}
	if len(tab.X) != rows || len(tab.Rows) != rows {
		t.Fatalf("%s: %d rows, want %d", tab.Title, len(tab.Rows), rows)
	}
	if len(tab.Cols) != cols {
		t.Fatalf("%s: %d cols, want %d", tab.Title, len(tab.Cols), cols)
	}
	for i, row := range tab.Rows {
		if len(row) != cols {
			t.Fatalf("%s row %d: %d cells", tab.Title, i, len(row))
		}
		for j, v := range row {
			if v < 0 {
				t.Errorf("%s[%d][%d] = %v < 0", tab.Title, i, j, v)
			}
		}
	}
	var txt strings.Builder
	tab.Write(&txt)
	if !strings.Contains(txt.String(), tab.Cols[0]) {
		t.Error("text rendering missing column header")
	}
	var csv strings.Builder
	tab.WriteCSV(&csv)
	if lines := strings.Count(csv.String(), "\n"); lines != rows+2 {
		t.Errorf("csv has %d lines, want %d", lines, rows+2)
	}
}

func TestFig6Structure(t *testing.T) {
	tab := Fig6(Config{Iters: tiny, Seed: 1}, 0)
	checkTable(t, tab, 11, 9) // 11 skews; nab×3, ab×3, factor×3
	if tab.X[0] != 0 || tab.X[10] != 1000 {
		t.Errorf("skew axis %v", tab.X)
	}
}

func TestFig7Structure(t *testing.T) {
	tab := Fig7(Config{Iters: tiny, Seed: 1}, 0)
	checkTable(t, tab, 5, 9)
	if tab.X[0] != 2 || tab.X[4] != 32 {
		t.Errorf("node axis %v", tab.X)
	}
}

func TestFig8Structure(t *testing.T) {
	checkTable(t, Fig8(Config{Iters: tiny, Seed: 1}, 0), 5, 9)
}

func TestFig9Structure(t *testing.T) {
	hetero, homog := Fig9(Config{Iters: tiny, Seed: 1}, 0)
	checkTable(t, hetero, 5, 3)
	checkTable(t, homog, 4, 3)
	// Homogeneous sweep stops at the paper's 16 nodes.
	if homog.X[len(homog.X)-1] != 16 {
		t.Errorf("homogeneous axis %v", homog.X)
	}
}

func TestFig10Structure(t *testing.T) {
	tab := Fig10(Config{Iters: tiny, Seed: 1}, 0)
	checkTable(t, tab, 8, 3)
	if tab.X[0] != 1 || tab.X[7] != 128 {
		t.Errorf("element axis %v", tab.X)
	}
}

func TestAblationNICReduceStructure(t *testing.T) {
	tab := AblationNICReduce(8, 200*time.Microsecond, Config{Iters: tiny, Seed: 1}, 0)
	checkTable(t, tab, 3, 4)
}

func TestScaleProjectionStructure(t *testing.T) {
	tab := ScaleProjection([]int{8, 16}, 100*time.Microsecond, 4, Config{Iters: tiny, Seed: 1}, 0)
	checkTable(t, tab, 2, 3)
}

func TestPaperParameterSets(t *testing.T) {
	if n := len(PaperSkews()); n != 11 {
		t.Errorf("%d skews", n)
	}
	if s := PaperSizes(); len(s) != 5 || s[4] != 32 {
		t.Errorf("sizes %v", s)
	}
	if c := PaperCounts(); len(c) != 3 || c[0] != 4 || c[2] != 128 {
		t.Errorf("counts %v", c)
	}
}

func TestModeStrings(t *testing.T) {
	if NonAppBypass.String() != "nab" || AppBypass.String() != "ab" || coll.AlgoNIC.String() != "nic" {
		t.Error("mode names wrong")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	c.defaults()
	if c.Iters == 0 || c.Count == 0 || c.Seed == 0 {
		t.Errorf("defaults not applied: %+v", c)
	}
}

func TestAblationSignalCostStructure(t *testing.T) {
	tab := AblationSignalCost(8, 4, 200*time.Microsecond, Config{Iters: tiny, Seed: 1}, 0)
	checkTable(t, tab, 5, 3)
	// Cheaper signals must never make ab slower than pricier ones.
	if tab.Rows[0][1] > tab.Rows[len(tab.Rows)-1][1] {
		t.Errorf("ab CPU fell as signals got costlier: %v -> %v",
			tab.Rows[0][1], tab.Rows[len(tab.Rows)-1][1])
	}
}

func TestAblationHeterogeneityStructure(t *testing.T) {
	tab := AblationHeterogeneity(8, 4, Config{Iters: tiny, Seed: 1}, 0)
	checkTable(t, tab, 2, 3)
}

func TestAblationSignalCostFactorMonotone(t *testing.T) {
	tab := AblationSignalCost(16, 4, 800*time.Microsecond, Config{Iters: 25, Seed: shapeSeed}, 0)
	prev := tab.Rows[0][2]
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i][2] > prev*1.15 {
			t.Errorf("factor rose sharply with costlier signals: row %d %.2f after %.2f",
				i, tab.Rows[i][2], prev)
		}
		prev = tab.Rows[i][2]
	}
}

func TestAblationRendezvousABStructure(t *testing.T) {
	tab := AblationRendezvousAB(4, 300*time.Microsecond, Config{Iters: tiny, Seed: 1}, 0)
	checkTable(t, tab, 3, 3)
}

// TestRendezvousABWinsUnderSkew: the §V-B extension should beat the
// fallback for skewed large-message reductions (that is its point).
func TestRendezvousABWinsUnderSkew(t *testing.T) {
	tab := AblationRendezvousAB(8, 800*time.Microsecond, Config{Iters: 12, Seed: shapeSeed}, 0)
	for i, row := range tab.Rows {
		if row[2] < 1.1 {
			t.Errorf("row %d (%v elems): rendezvous AB factor %.2f, want > 1.1", i, tab.X[i], row[2])
		}
	}
}
