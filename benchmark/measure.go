package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the middle two; 0 for an
// empty sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank p-th percentile (0 < p < 100) of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(s))-1e-9)) - 1 // 0.9×100 is 90.00000000000001
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailLadder is the set of tail percentiles the benchmark is willing to
// name.
var tailLadder = []float64{90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that
// still has at least ten of n samples beyond it, or 0 when even p90
// does not (n < 100): below that a tail is an anecdote, and only the
// median is reported.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// tailValue is percentile(xs, p) when the sample supports p by the
// ten-samples-beyond rule, else 0 ("not reportable at this n").
func tailValue(xs []float64, p float64) float64 {
	if tailPercentile(len(xs)) < p {
		return 0
	}
	return percentile(xs, p)
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median — the run-to-run spread -compare holds
// against a metric's bound. Quartiles use the exclusive method, as
// Python's statistics.quantiles(n=4) does. 0 for fewer than two runs.
func quartileSpread(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs((q(3) - q(1)) / med)
}

// fingerprint is FNV-1a over a stream of 64-bit words; the benchmark
// folds every cell's simulated statistics through one so "nothing
// simulated changed" is a single comparable number.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() fingerprint { return fingerprint{fnv.New64a()} }

func (f fingerprint) add(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	f.h.Write(b[:]) // a hash.Hash never returns an error
}

// low32 is what gets reported: exact in a float64.
func (f fingerprint) low32() float64 { return float64(uint32(f.h.Sum64())) }

// peakRSSMB reads the VmHWM line of a process's status file: the peak
// resident set the kernel has seen for it, in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) < 2 {
				break
			}
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
