package core

import "abred/internal/sim"

// DelayPolicy implements the §IV-E optimization: before exiting
// MPI_Reduce with children still outstanding, linger briefly so nearly
// on-time children complete inside the call and no signal is needed.
// Too short and late children never catch up; too long and the call
// pays unnecessary latency.
type DelayPolicy interface {
	// Delay returns how long the synchronous phase may linger, given
	// the number of processes in the reduction and the element count.
	Delay(nprocs, count int) sim.Time
}

// NoDelay exits immediately — the paper's default behaviour.
type NoDelay struct{}

// Delay returns zero.
func (NoDelay) Delay(int, int) sim.Time { return 0 }

// ProcCountDelay is the paper's "simple scheme in which we calculated
// the delay based on the number of processes involved in the reduction":
// Base plus PerProc for each participant, capped at Max.
type ProcCountDelay struct {
	Base    sim.Time
	PerProc sim.Time
	Max     sim.Time
}

// Delay implements DelayPolicy.
func (p ProcCountDelay) Delay(nprocs, _ int) sim.Time {
	d := p.Base + sim.Time(nprocs)*p.PerProc
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	return d
}

// FixedDelay always lingers for D; useful in ablation studies.
type FixedDelay struct{ D sim.Time }

// Delay implements DelayPolicy.
func (f FixedDelay) Delay(int, int) sim.Time { return f.D }
