package bench

import (
	"testing"
	"time"

	"abred/internal/model"
)

// TestKernelMicrobench: the harness reports coherent numbers and the
// workload is deterministic in virtual terms (same event count per run).
func TestKernelMicrobench(t *testing.T) {
	a := KernelMicrobench(AppBypass, 5, 20030701)
	b := KernelMicrobench(AppBypass, 5, 20030701)
	if a.Events == 0 || a.EventsPerSec <= 0 {
		t.Fatalf("empty measurement: %+v", a)
	}
	if a.Events != b.Events {
		t.Errorf("event count not deterministic: %d vs %d", a.Events, b.Events)
	}
	if a.Mode != "ab" {
		t.Errorf("mode = %q, want ab", a.Mode)
	}
}

// BenchmarkKernelEventsPerSec is the committed kernel throughput
// benchmark: simulated events per wall-clock second on the Fig. 6
// 32-node workload. Compare parent and change with it when touching
// kernel hot paths.
func BenchmarkKernelEventsPerSec(b *testing.B) {
	cfg := Config{Specs: model.PaperCluster32(), Count: 4, Mode: AppBypass,
		MaxSkew: time.Millisecond, Iters: 10, Seed: 20030701}
	CPUUtil(cfg) // warm pools before the timer starts
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := CPUUtil(cfg)
		events += r.Events
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
	if b.N > 0 {
		b.ReportMetric(float64(events)/float64(b.N), "events/op")
	}
}
