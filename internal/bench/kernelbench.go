package bench

import (
	"runtime"
	"time"

	"abred/internal/model"
)

// KernelMicrobenchResult is one measured run of the kernel
// microbenchmark: raw simulation throughput and allocation cost on a
// fixed workload.
type KernelMicrobenchResult struct {
	Mode           string        `json:"mode"`
	Events         uint64        `json:"events"`
	Wall           time.Duration `json:"-"`
	WallMS         float64       `json:"wall_ms"`
	EventsPerSec   float64       `json:"events_per_sec"`
	Allocs         uint64        `json:"allocs"`
	AllocsPerEvent float64       `json:"allocs_per_event"`
}

// KernelMicrobench measures the simulation kernel itself — not the
// simulated cluster — on the paper's Fig. 6 workload: a 32-node
// heterogeneous cluster running skewed 4-element reductions. One warm-up
// run populates the event, packet and request pools; the measured run is
// then timed with the process-wide Mallocs delta taken around it.
//
// The workload is fixed so numbers are comparable across commits.
func KernelMicrobench(mode Mode, iters int, seed int64) KernelMicrobenchResult {
	cfg := Config{Specs: model.PaperCluster32(), Count: 4, Mode: mode,
		MaxSkew: time.Millisecond, Iters: iters, Seed: seed}
	CPUUtil(cfg) // warm-up: fills pools, faults in code and data

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r := CPUUtil(cfg)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	allocs := m1.Mallocs - m0.Mallocs

	res := KernelMicrobenchResult{
		Mode:   mode.String(),
		Events: r.Events,
		Wall:   wall,
		WallMS: float64(wall) / float64(time.Millisecond),
		Allocs: allocs,
	}
	if wall > 0 {
		res.EventsPerSec = float64(r.Events) / wall.Seconds()
	}
	if r.Events > 0 {
		res.AllocsPerEvent = float64(allocs) / float64(r.Events)
	}
	return res
}
