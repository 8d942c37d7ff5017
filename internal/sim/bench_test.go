package sim

import (
	"testing"
	"time"
)

// BenchmarkProcSwitch is the shape of the benchmark's sim.proc_switch_ns
// probe: 1024 processes in a Sleep loop on a common tick, so every park
// finds another process's wake next and costs a switch out and a switch
// back in. One op is one park; -benchtime 102400x is the probe's
// 1024 × 100 exactly. Run it with -cpu 1,2: a switch that goes through
// the Go scheduler gets slower at 2 (it wakes the idle P), a coroutine
// switch does not.
func BenchmarkProcSwitch(b *testing.B) {
	const procs = 1024
	k := New(1)
	for i := 0; i < procs; i++ {
		sleeps := b.N / procs
		if i < b.N%procs {
			sleeps++
		}
		k.Spawn("p", func(p *Proc) {
			for j := 0; j < sleeps; j++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkProcSelfResume: one process whose own wake is always the next
// event, the park that never leaves its stack. One op is one park.
func BenchmarkProcSelfResume(b *testing.B) {
	k := New(1)
	k.Spawn("p", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
		b.StopTimer()
	})
	k.Run()
	k.Shutdown()
}
