package bench

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"abred/internal/cluster"
	"abred/internal/fault"
	"abred/internal/model"
	"abred/internal/sim"
)

// renderSubset renders a figure subset that revisits the same cluster
// shapes many times — exactly the access pattern the reuse pool serves.
func renderSubset(o Config, workers int) string {
	var out string
	for _, tab := range []*Table{
		Fig7(o, workers),
		ScaleProjection([]int{8, 16}, 200*time.Microsecond, 4, o, workers),
	} {
		var b strings.Builder
		tab.Write(&b)
		tab.WriteCSV(&b)
		out += b.String()
	}
	return out
}

// TestReuseDeterminism is the tentpole guarantee at the benchmark level:
// figures produced from pooled, Reset clusters must be byte-identical to
// fresh-build figures — across worker counts, on repeated renders of the
// same warm pool, and under fault injection.
func TestReuseDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		fc   fault.Config
	}{
		{"clean", fault.Config{}},
		{"lossy", fault.Config{Seed: 3, Rule: fault.Rule{Drop: 0.01}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := Config{Iters: 2, Seed: 7, Fault: tc.fc}
			want := renderSubset(base, 1) // no pool: build per cell
			for _, workers := range []int{1, 4} {
				pool := cluster.NewPool()
				o := base
				o.Pool = pool
				if got := renderSubset(o, workers); got != want {
					t.Fatalf("workers=%d: cold-pool output differs from fresh build:\n%s",
						workers, firstDiff(got, want))
				}
				// Second render on the warm pool: every cell reuses.
				if got := renderSubset(o, workers); got != want {
					t.Fatalf("workers=%d: warm-pool output differs from fresh build:\n%s",
						workers, firstDiff(got, want))
				}
				pool.Drain()
			}
		})
	}
}

// panicAfter is a delay policy that panics on its n-th consultation: a
// failure inside a rank body, mid-collective, at a reproducible point.
type panicAfter struct{ left int }

func (p *panicAfter) Delay(int, int) sim.Time {
	if p.left--; p.left == 0 {
		panic("injected rank failure")
	}
	return 0
}

// TestPanickedRunNotPooled: a run that panics out of the simulation
// leaves its cluster half-run (processes parked inside the reduction,
// tokens out). It must be closed, not pooled, so the next request of
// that shape gets a cluster that behaves like a fresh one.
func TestPanickedRunNotPooled(t *testing.T) {
	cfg := Config{Specs: model.PaperCluster(16), Mode: AppBypass, MaxSkew: 200 * time.Microsecond, Iters: 20, Seed: 5}
	want := CPUUtil(cfg) // no pool: fresh build

	pool := cluster.NewPool()
	cfg.Pool = pool
	failing := cfg
	failing.Delay = &panicAfter{left: 37}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the injected failure did not surface")
			}
		}()
		CPUUtil(failing)
	}()
	if st := pool.Stats(); st.Size != 0 {
		t.Fatalf("half-run cluster went back into the pool: %+v", st)
	}
	if got := CPUUtil(cfg); !reflect.DeepEqual(got, want) {
		t.Errorf("run after the failure differs from a fresh build:\n got %+v\nwant %+v", got, want)
	}
	if got := CPUUtil(cfg); !reflect.DeepEqual(got, want) { // and the cluster that run pooled
		t.Errorf("pooled run after the failure differs from a fresh build:\n got %+v\nwant %+v", got, want)
	}
	if st := pool.Stats(); st.Size != 1 || st.Hits != 1 || st.Misses != 2 {
		t.Errorf("pool after failure, fresh, pooled = %+v, want size 1, 1 hit, 2 misses", st)
	}
	pool.Drain()
}
