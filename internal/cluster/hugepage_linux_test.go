//go:build linux && !race

package cluster

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"abred/internal/coll"
	"abred/internal/model"
	"abred/internal/topo"
)

// hugeRanges keeps the private anonymous read-write mappings of a fixed
// /proc/self/maps text, trimmed to whole huge pages, and nothing else.
func TestHugeRanges(t *testing.T) {
	const maps = `00400000-0061e000 r-xp 00000000 08:02 173521 /usr/bin/abscale
0061e000-00a00000 rw-p 0021e000 08:02 173521 /usr/bin/abscale
00a00000-00e00000 rw-p 00000000 00:00 0
01c2b000-01c4c000 rw-p 00000000 00:00 0 [heap]
c000000000-c004400000 rw-p 00000000 00:00 0
c004400000-c008000000 ---p 00000000 00:00 0
7f0000100000-7f0000700000 rw-p 00000000 00:00 0
7f0000800000-7f0000a00000 rw-s 00000000 00:01 1024 /dev/zero (deleted)
7f0000a00000-7f0000c00000 rw-s 00000000 00:00 0
7f0000c00000-7f0000e00000 r--p 00000000 00:00 0
7f0001000000-7f00011ff000 rw-p 00000000 00:00 0
7f0001200000-7f0001300000 rw-p 00000000 00:00 0
7f0002000000-7f0002800000 rw-p 00000000 00:00 0 [anon: Go: heap]
7ffc1a4d3000-7ffc1a4f4000 rw-p 00000000 00:00 0 [stack]
7ffc1a5f0000-7ffc1a5f2000 r-xp 00000000 00:00 0 [vdso]
`
	want := []addrRange{
		{0x00a00000, 0x00e00000},         // aligned both ends: kept whole
		{0xc000000000, 0xc004400000},     // the Go heap arena
		{0x7f0000200000, 0x7f0000600000}, // trimmed at both ends
		{0x7f0002000000, 0x7f0002800000}, // named anonymous memory
	}
	if got := hugeRanges(maps); !reflect.DeepEqual(got, want) {
		t.Errorf("hugeRanges:\n got %x\nwant %x", got, want)
	}
}

// After the first Exec of a flow cluster of hugePageRanks ranks, the
// mapping that holds the cluster's per-rank Outcome is eligible for
// transparent huge pages. Eligibility is the advice landing, so this
// does not depend on free huge pages; under the `madvise` THP mode the
// flag reads 0 on Go heap memory nobody advised.
func TestFlowRankStateOnHugePages(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || strings.Contains(string(mode), "[never]") {
		t.Skipf("transparent huge pages unavailable (%q, %v)", mode, err)
	}
	if strings.Contains(os.Getenv("GODEBUG"), "disablethp=1") {
		t.Skip("GODEBUG=disablethp=1")
	}
	c := New(Config{Specs: model.PaperCluster(hugePageRanks), Seed: 1, Engine: EngineFlow,
		Topo: topo.Spec{Kind: topo.FatTree, K: 16}})
	defer c.Close()
	out, _ := c.Exec(coll.Program{Iters: 1, Count: 4, Algo: coll.AlgoAB,
		Body: []coll.Step{{Kind: coll.StepReduce}, {Kind: coll.StepBarrier}}})
	if got := thpEligible(t, uintptr(unsafe.Pointer(&out.InCall[0]))); got != "1" {
		t.Errorf("rank state's mapping reads THPeligible: %s after the first Exec, want 1", got)
	}
	// With nothing mapped since, a later run's pass is skipped: it reads
	// one runtime metric and neither /proc nor the maps.
	if allocs := testing.AllocsPerRun(10, adviseHugePages); allocs > 1 {
		t.Errorf("a pass with nothing newly mapped allocates %.1f times, want <= 1", allocs)
	}
}

// thpEligible returns the THPeligible field of the /proc/self/smaps
// entry whose range holds addr.
func thpEligible(t *testing.T, addr uintptr) string {
	t.Helper()
	smaps, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	in := false
	for _, line := range strings.Split(string(smaps), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if lo, hi, ok := strings.Cut(f[0], "-"); ok && len(f) >= 5 {
			start, err1 := strconv.ParseUint(lo, 16, 64)
			end, err2 := strconv.ParseUint(hi, 16, 64)
			in = err1 == nil && err2 == nil && uint64(addr) >= start && uint64(addr) < end
			continue
		}
		if in && f[0] == "THPeligible:" && len(f) == 2 {
			return f[1]
		}
	}
	t.Fatalf("no smaps entry with THPeligible holds %#x", addr)
	return ""
}
