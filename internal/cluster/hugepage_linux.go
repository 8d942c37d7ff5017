//go:build linux && !race

package cluster

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
)

// hugePage is the size of a transparent huge page: one PMD entry, 2 MiB
// on every 4 KiB-page Linux port Go supports.
const hugePage = 2 << 20

// madvCollapse is MADV_COLLAPSE (Linux 6.1), which package syscall does
// not define: collapse what is already resident into huge pages now
// instead of leaving it to khugepaged.
const madvCollapse = 25

// mapped is what the Go runtime had mapped read-write after the last
// pass: memory it maps later is a mapping of its own, not advised.
var mapped atomic.Uint64

// adviseHugePages advises every private anonymous read-write mapping of
// the process — the Go heap arenas among them — for transparent huge
// pages, then collapses what is already resident. Go never asks for huge
// pages on its heap, so under the `madvise` THP mode a large flow
// cluster's rank state sits on 4 KiB pages and nearly every first load
// of a rank record walks the page table. The pass is skipped when the
// runtime has mapped nothing since the last one, as in a steady state of
// runs: what it would advise already is.
//
// It is best effort: an error (THP mode `never`, a kernel without
// MADV_COLLAPSE, EAGAIN on fragmented memory) leaves that range as it
// was, and GODEBUG=disablethp=1, Go's own opt-out, skips the pass. The
// race detector's build has the no-op instead: its shadow mappings are
// anonymous too, and its runtime advises them MADV_NOHUGEPAGE so a
// sparse touch does not fault in 2 MiB.
func adviseHugePages() {
	if strings.Contains(os.Getenv("GODEBUG"), "disablethp=1") {
		return
	}
	last := mapped.Load()
	if now := runtimeMapped(); now != 0 && (now <= last || !mapped.CompareAndSwap(last, now)) {
		return
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return
	}
	for _, r := range hugeRanges(string(maps)) {
		// Best effort: a failed call leaves the range as it was.
		syscall.Syscall(syscall.SYS_MADVISE, r.start, r.end-r.start, syscall.MADV_HUGEPAGE)
		syscall.Syscall(syscall.SYS_MADVISE, r.start, r.end-r.start, madvCollapse)
	}
	// What the pass itself made the runtime map counts as seen.
	mapped.Store(runtimeMapped())
}

// runtimeMapped returns the bytes the Go runtime has mapped read-write,
// or 0 if it does not report them, in which case every call passes.
func runtimeMapped() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// addrRange is the address range [start, end).
type addrRange struct{ start, end uintptr }

// hugeRanges returns the huge-page-aligned interiors of the private
// anonymous read-write mappings in maps, the text of /proc/self/maps:
// the `rw-p` lines with no pathname, or with an `[anon:...]` name, as Go
// 1.25 and later give their heap (`[anon: Go: heap]`) where the kernel
// names anonymous mappings. A mapping with no aligned huge page inside
// it is dropped.
func hugeRanges(maps string) []addrRange {
	var rs []addrRange
	for _, line := range strings.Split(maps, "\n") {
		// address perms offset dev inode [pathname]
		f := strings.Fields(line)
		if len(f) < 5 || f[1] != "rw-p" || len(f) > 5 && !strings.HasPrefix(f[5], "[anon:") {
			continue
		}
		lo, hi, ok := strings.Cut(f[0], "-")
		start, err1 := strconv.ParseUint(lo, 16, 64)
		end, err2 := strconv.ParseUint(hi, 16, 64)
		if !ok || err1 != nil || err2 != nil {
			continue
		}
		start = (start + hugePage - 1) &^ (hugePage - 1)
		end &^= hugePage - 1
		if start < end {
			rs = append(rs, addrRange{uintptr(start), uintptr(end)})
		}
	}
	return rs
}
