package model

import (
	"testing"
	"time"
	"unsafe"
)

// TestCostModelShared: a CostModel is one pointer, and SharedCostModels
// hands every node of a hardware class the identical handle — three
// models for the paper mix at any size — from a per-call table, so two
// clusters never share one.
func TestCostModelShared(t *testing.T) {
	if s := unsafe.Sizeof(CostModel{}); s != 8 {
		t.Fatalf("CostModel is %d bytes, want an 8-byte handle", s)
	}
	specs := PaperCluster(4096)
	cms := SharedCostModels(specs, DefaultCosts())
	byClass := make(map[NodeSpec]CostModel)
	for i, cm := range cms {
		if cm.Spec() != specs[i] {
			t.Fatalf("node %d: model built for %+v, want %+v", i, cm.Spec(), specs[i])
		}
		if h, ok := byClass[specs[i]]; ok && h != cm {
			t.Fatalf("node %d: a second model for class %s", i, specs[i].Class)
		}
		byClass[specs[i]] = cm
	}
	distinct := make(map[CostModel]bool)
	for _, cm := range cms {
		distinct[cm] = true
	}
	if len(distinct) != 3 {
		t.Fatalf("%d distinct models for the paper mix, want 3", len(distinct))
	}
	if again := SharedCostModels(specs[:1], DefaultCosts()); again[0] == cms[0] {
		t.Fatal("two SharedCostModels calls returned the same model: a package-level cache?")
	}
}

// costRow is every cost a model answers for one message size n, in the
// order HostCopy, ReduceOp(n, 8), ReduceOp(n, 1), Pin, QueueSearch,
// NICPkt, NICReduceOp(n, 8), WireTime.
type costRow [8]time.Duration

func sizedCosts(m CostModel, n int) costRow {
	return costRow{m.HostCopy(n), m.ReduceOp(n, 8), m.ReduceOp(n, 1), m.Pin(n),
		m.QueueSearch(n), m.NICPkt(n), m.NICReduceOp(n, 8), m.WireTime(n)}
}

// fixedCosts is every size-independent answer: HostSendOvh, HostRecvOvh,
// SignalOvh, SignalIgnoredOvh, PollIter, DescriptorOvh, EagerThreshold,
// SignalDelay.
func fixedCosts(m CostModel) costRow {
	return costRow{m.HostSendOvh(), m.HostRecvOvh(), m.SignalOvh(), m.SignalIgnoredOvh(),
		m.PollIter(), m.DescriptorOvh(), time.Duration(m.EagerThreshold()), m.SignalDelay()}
}

// TestCostModelGolden: every cost method, for the three paper classes
// under DefaultCosts, returns exactly what it returned when each node
// carried its own copy of the constants (values captured from that
// model). A shared model must move no result by one nanosecond.
func TestCostModelGolden(t *testing.T) {
	fixed := []struct {
		spec NodeSpec
		want costRow
	}{
		{PIII700PCI64B, costRow{1285, 1285, 14285, 7142, 214, 714, 16384, 6000}},
		{PIII1GPCI64B, costRow{900, 900, 10000, 5000, 150, 500, 16384, 6000}},
		{PIII1GPCI64C, costRow{900, 900, 10000, 5000, 150, 500, 16384, 6000}},
	}
	sized := []struct {
		spec NodeSpec
		n    int
		want costRow
	}{
		{PIII700PCI64B, 0, costRow{0, 0, 0, 25000, 0, 2000, 0, 300}},
		{PIII700PCI64B, 1, costRow{1, 8, 0, 25000, 57, 2001, 96, 304}},
		{PIII700PCI64B, 7, costRow{17, 60, 7, 25004, 400, 2013, 672, 328}},
		{PIII700PCI64B, 64, costRow{160, 548, 68, 25043, 3657, 2121, 6144, 556}},
		{PIII700PCI64B, 1000, costRow{2505, 8571, 1071, 25683, 57142, 3893, 96000, 4300}},
		{PIII700PCI64B, 4096, costRow{10264, 35108, 4388, 27800, 234057, 9757, 393216, 16684}},
		{PIII700PCI64B, 16384, costRow{41061, 140434, 17554, 36200, 936228, 33030, 1572864, 65836}},
		{PIII700PCI64B, 65536, costRow{164250, 561737, 70217, 69800, 3744914, 126121, 6291456, 262444}},
		{PIII700PCI64B, 1048576, costRow{2628010, 8987794, 1123474, 741800, 59918628, 1987939, 100663296, 4194604}},
		{PIII1GPCI64B, 0, costRow{0, 0, 0, 25000, 0, 2000, 0, 300}},
		{PIII1GPCI64B, 1, costRow{1, 6, 0, 25000, 40, 2007, 96, 304}},
		{PIII1GPCI64B, 7, costRow{12, 42, 5, 25004, 280, 2053, 672, 328}},
		{PIII1GPCI64B, 64, costRow{112, 384, 48, 25043, 2560, 2484, 6144, 556}},
		{PIII1GPCI64B, 1000, costRow{1754, 6000, 750, 25683, 40000, 9575, 96000, 4300}},
		{PIII1GPCI64B, 4096, costRow{7185, 24576, 3072, 27800, 163840, 33030, 393216, 16684}},
		{PIII1GPCI64B, 16384, costRow{28743, 98304, 12288, 36200, 655360, 126121, 1572864, 65836}},
		{PIII1GPCI64B, 65536, costRow{114975, 393216, 49152, 69800, 2621440, 498484, 6291456, 262444}},
		{PIII1GPCI64B, 1048576, costRow{1839607, 6291456, 786432, 741800, 41943040, 7945757, 100663296, 4194604}},
		{PIII1GPCI64C, 0, costRow{0, 0, 0, 25000, 0, 1330, 0, 300}},
		{PIII1GPCI64C, 1, costRow{1, 6, 0, 25000, 40, 1337, 63, 304}},
		{PIII1GPCI64C, 7, costRow{12, 42, 5, 25004, 280, 1383, 446, 328}},
		{PIII1GPCI64C, 64, costRow{112, 384, 48, 25043, 2560, 1814, 4085, 556}},
		{PIII1GPCI64C, 1000, costRow{1754, 6000, 750, 25683, 40000, 8905, 63840, 4300}},
		{PIII1GPCI64C, 4096, costRow{7185, 24576, 3072, 27800, 163840, 32360, 261488, 16684}},
		{PIII1GPCI64C, 16384, costRow{28743, 98304, 12288, 36200, 655360, 125451, 1045954, 65836}},
		{PIII1GPCI64C, 65536, costRow{114975, 393216, 49152, 69800, 2621440, 497814, 4183818, 262444}},
		{PIII1GPCI64C, 1048576, costRow{1839607, 6291456, 786432, 741800, 41943040, 7945087, 66941091, 4194604}},
	}
	for _, g := range fixed {
		if got := fixedCosts(NewCostModel(g.spec, DefaultCosts())); got != g.want {
			t.Errorf("%s fixed costs = %v, want %v", g.spec.Class, got, g.want)
		}
	}
	for _, g := range sized {
		if got := sizedCosts(NewCostModel(g.spec, DefaultCosts()), g.n); got != g.want {
			t.Errorf("%s costs at %d bytes = %v, want %v", g.spec.Class, g.n, got, g.want)
		}
	}
}
