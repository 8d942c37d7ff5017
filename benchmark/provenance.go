package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// provenance describes the host and code a result set came from: the
// description Hunold & Carpen-Amarie ask every MPI timing to carry.
type provenance struct {
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	GitRev     string             `json:"git_rev"`   // "unknown" outside a git checkout
	GitDirty   bool               `json:"git_dirty"` // uncommitted changes present
	Kernel     string             `json:"kernel"`
	CPUModel   string             `json:"cpu_model"`
	Seed       int64              `json:"seed"`
	Start      time.Time          `json:"start"`
	WallS      map[string]float64 `json:"wall_s"` // per workload, all its runs
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(strings.SplitN(string(b), "\n", 2)[0])
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func gitState() (rev string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err == nil && len(status) > 0
}

func collectProvenance(seed int64) provenance {
	rev, dirty := gitState()
	return provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     rev,
		GitDirty:   dirty,
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Start:      time.Now().UTC(),
		WallS:      make(map[string]float64),
	}
}
