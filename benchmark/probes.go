package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/fabric"
	"abred/internal/flow"
	"abred/internal/model"
	"abred/internal/mpi"
	"abred/internal/serve"
	"abred/internal/sim"
	"abred/internal/stats"
	"abred/internal/topo"
	"abred/internal/workload"
)

// A probe is an isolated micro-run through one layer's exported API. It
// isolates the layer's host cost per operation, which times the layer's
// exact operation count on a workload bounds what speeding that layer
// up can save there. Probes take their inputs from fixed arithmetic
// sequences, not from -seed: they measure the layer, not a scenario.
// Every traced run executes all of them, after the workload's own
// clusters are released.
func runProbes(v values, scratch string) error {
	for _, p := range []func(values){probeSim, probeFabric, probeTopo, probeRanks, probeFlow, probeTenancy, probeStats} {
		p(v)
		runtime.GC()
	}
	return probeServe(v, scratch)
}

// perOp is wall nanoseconds per operation.
func perOp(wall time.Duration, ops uint64) float64 {
	return ratio(float64(wall), float64(ops))
}

func probeSim(v values) {
	// 4096 self-rescheduling timers, about a million events: heap push,
	// pop and closure dispatch with no process hand-off.
	const timers, total = 4096, 1 << 20
	k := sim.New(1)
	fired := 0
	for i := 0; i < timers; i++ {
		d := sim.Time(1000 + i)
		var tick func()
		tick = func() {
			if fired++; fired < total {
				k.After(d, tick)
			}
		}
		k.After(d, tick)
	}
	t0 := time.Now()
	k.Run()
	v["sim.timer_ns_per_event"] = perOp(time.Since(t0), k.Events())

	// 1024 processes in a Sleep loop: every wake-up is a hand-off from
	// the scheduler goroutine to a process goroutine and back.
	const procs, sleeps = 1024, 100
	k = sim.New(1)
	for i := 0; i < procs; i++ {
		k.Spawn("p", func(p *sim.Proc) {
			for j := 0; j < sleeps; j++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	t0 = time.Now()
	k.Run()
	v["sim.proc_switch_ns"] = perOp(time.Since(t0), procs*sleeps)
	k.Shutdown()

	// Two kernels under conservative windows with nothing to exchange:
	// each window holds one event per kernel, so the wall per window is
	// the barrier's own cost.
	const windows = 20000
	ks := []*sim.Kernel{sim.New(1), sim.New(2)}
	for _, k := range ks {
		left := windows
		var tick func()
		tick = func() {
			if left--; left > 0 {
				k.After(time.Microsecond, tick)
			}
		}
		k.After(time.Microsecond, tick)
	}
	var barriers uint64
	set := sim.NewLPSet(ks, time.Microsecond, func() { barriers++ })
	t0 = time.Now()
	set.Run()
	v["sim.lp_window_us"] = perOp(time.Since(t0), barriers) / 1000
}

func probeFabric(v values) {
	send := func(n, rounds, stride int, tp *topo.Topology) float64 {
		k := sim.New(1)
		f := fabric.New(k, n, model.DefaultCosts())
		if tp != nil {
			f.SetTopology(tp)
		}
		for i := 0; i < n; i++ {
			f.Connect(i, func(fabric.Frame) {})
		}
		t0 := time.Now()
		for j := 0; j < rounds; j++ {
			for src := 0; src < n; src++ {
				f.Send(fabric.Frame{Src: src, Dst: (src + 1 + j*stride) % n, Size: 64})
			}
		}
		k.Run()
		frames, _ := f.Stats()
		return perOp(time.Since(t0), frames)
	}
	v["fabric.xbar_send_ns"] = send(1024, 200, 1, nil)
	// Stride 257 crosses pods on fattree:16 (8 hosts per leaf, 64 per
	// pod), so most frames take the full climb.
	v["fabric.routed_send_ns"] = send(4096, 50, 257, topo.Build(mustTopo("fattree:16"), 4096))
}

func probeTopo(v values) {
	const n = 65536
	t0 := time.Now()
	tp := topo.Build(mustTopo("fattree:16"), n)
	v["topo.build_ms"] = millis(time.Since(t0))

	const routes = 1 << 20
	var p topo.Path
	var hops int
	x := uint32(1)
	t0 = time.Now()
	for i := 0; i < routes; i++ {
		x = x*1664525 + 1013904223
		tp.Route(int(x>>16)%n, int(x>>3)%n, &p)
		hops += p.N
	}
	v["topo.route_ns"] = perOp(time.Since(t0), routes)
	if hops == 0 {
		panic("benchmark: topo probe routed nothing")
	}

	const ranks = 16384
	tp = topo.Build(mustTopo("fattree:16"), ranks)
	t0 = time.Now()
	coll.NewTopoTree(ranks, 0, tp.Leaf)
	v["coll.topotree_build_ms"] = millis(time.Since(t0))
}

// probeRanks runs three rank programs on a 1024-node crossbar without
// skew, each reported as host nanoseconds per simulated event: a
// ping-pong between rank pairs (mpi over gm over fabric), the binomial
// reduction (coll), and the application-bypass reduction (core).
func probeRanks(v values) {
	const n = 1024
	run := func(prog cluster.Program) float64 {
		cl := cluster.New(cluster.Config{Specs: model.PaperCluster(n), Seed: 1})
		defer cl.Close()
		t0 := time.Now()
		cl.Run(prog)
		return perOp(time.Since(t0), cl.Events())
	}
	v["mpi.pingpong_ns_per_event"] = run(func(nd *cluster.Node, w *mpi.Comm) {
		buf := make([]byte, 32)
		peer := nd.ID ^ 1
		for i := 0; i < 50; i++ {
			if nd.ID&1 == 0 {
				w.Send(peer, 0, buf)
				w.Recv(peer, 0, buf)
			} else {
				w.Recv(peer, 0, buf)
				w.Send(peer, 0, buf)
			}
		}
	})
	reduce := func(ab bool) cluster.Program {
		return func(nd *cluster.Node, w *mpi.Comm) {
			in, out := make([]byte, cellCount*8), make([]byte, cellCount*8)
			for i := 0; i < 10; i++ {
				if ab {
					nd.Engine.Reduce(w, in, out, cellCount, mpi.Float64, mpi.OpSum, 0)
				} else {
					coll.Reduce(w, in, out, cellCount, mpi.Float64, mpi.OpSum, 0)
				}
				coll.Barrier(w)
			}
		}
	}
	v["coll.reduce_ns_per_event"] = run(reduce(false))
	v["core.reduce_ns_per_event"] = run(reduce(true))
}

type discard struct{}

func (discard) FlowEvent(uint64, sim.Time) {}

// probeFlow drives the max-min substrate directly on a 16384-node
// fat-tree. A permutation (6 waves of 16384 simultaneous 4 KB flows)
// keeps every sharing component small. An incast (2 waves of 512 flows
// into 16 sinks) makes one large component, which is the same reshare
// used the other way: its cost per flow grows with the component, so
// the incast is kept small.
func probeFlow(v values) {
	const n = 16384
	tp := topo.Build(mustTopo("fattree:16"), n)
	run := func(waves int, dst func(wave, src int) int) float64 {
		k := sim.New(1)
		nt := flow.NewNet(k, tp, n, model.DefaultCosts())
		for w := 0; w < waves; w++ {
			k.After(sim.Time(w)*time.Millisecond, func() {
				for src := 0; src < n; src++ {
					if d := dst(w, src); d != src {
						nt.Start(src, d, 4096, 0, discard{}, 0)
					}
				}
			})
		}
		t0 := time.Now()
		k.Run()
		started, _, _, _ := nt.Stats()
		return perOp(time.Since(t0), started)
	}
	v["flow.net_ns_per_flow"] = run(6, func(w, src int) int { return (src + 1 + 257*(w+1)) % n })
	v["flow.incast_ns_per_flow"] = run(2, func(w, src int) int {
		if src%32 != 0 {
			return src // sends nothing
		}
		return (src / 32 % 16) * (n / 16)
	})
}

func probeTenancy(v values) {
	cfg := tenancyShape.tenancyConfig(1)
	cfg.Pool = cluster.NewPool()
	workload.Tenancy(cfg) // builds the cluster
	t0 := time.Now()
	workload.Tenancy(cfg)
	v["workload.tenancy_ms"] = millis(time.Since(t0))
	cfg.Pool.Drain()
}

func probeStats(v values) {
	const n = 1 << 20
	xs := make([]time.Duration, n)
	x := uint32(1)
	for i := range xs {
		x = x*1664525 + 1013904223
		xs[i] = time.Duration(x >> 8)
	}
	t0 := time.Now()
	s := stats.Summarize(xs)
	v["stats.summarize_ns_per_sample"] = perOp(time.Since(t0), n)
	if s.N != n {
		panic("benchmark: stats probe summarized nothing")
	}
}

// probeServe times the pieces of a cache-hit request in-process: spec
// normalization, hashing, the cache's memory and disk paths, and the
// whole handler on a recorder with no socket under it.
func probeServe(v values, scratch string) error {
	spec := serve.Spec{Nodes: 64, Topo: "fattree:8:o1", Skew: serve.Duration(time.Millisecond), LPs: 1}
	const n = 20000
	t0 := time.Now()
	var norm serve.Spec
	for i := 0; i < n; i++ {
		var err error
		if norm, err = spec.Normalize(serve.Limits{}); err != nil {
			panic(err)
		}
	}
	v["serve.normalize_us"] = perOp(time.Since(t0), n) / 1000
	t0 = time.Now()
	for i := 0; i < n; i++ {
		_ = norm.Key()
	}
	v["serve.key_us"] = perOp(time.Since(t0), n) / 1000

	dir := filepath.Join(scratch, "probe-cache")
	defer os.RemoveAll(dir)
	cache, err := serve.NewCache(0, dir)
	if err != nil {
		return err
	}
	const entries = 1000
	body := bytes.Repeat([]byte("x"), 2048)
	keys := make([]string, entries)
	for i := range keys {
		h := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
		keys[i] = hex.EncodeToString(h[:])
	}
	t0 = time.Now()
	for _, k := range keys {
		cache.Put(k, body)
	}
	v["serve.cache_put_us"] = perOp(time.Since(t0), entries) / 1000
	t0 = time.Now()
	for i := 0; i < 200*entries; i++ {
		if _, ok := cache.Get(keys[i%entries]); !ok {
			panic("benchmark: cache probe missed")
		}
	}
	v["serve.cache_get_us"] = perOp(time.Since(t0), 200*entries) / 1000
	cold, err := serve.NewCache(0, dir)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, k := range keys {
		if _, ok := cold.Get(k); !ok {
			panic("benchmark: disk cache probe missed")
		}
	}
	v["serve.cache_diskget_us"] = perOp(time.Since(t0), entries) / 1000

	srv, err := serve.New(serve.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	post, err := json.Marshal(serve.Spec{Nodes: 16, Iters: 5})
	if err != nil {
		panic(err)
	}
	hit := func() string {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(post)))
		if rec.Code != http.StatusOK {
			panic(fmt.Sprintf("benchmark: handler probe got %d: %s", rec.Code, rec.Body))
		}
		return rec.Header().Get("X-Cache")
	}
	hit() // the miss that fills the cache
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if src := hit(); src != "hit" {
			panic("benchmark: handler probe X-Cache " + src)
		}
	}
	v["serve.handler_hit_us"] = perOp(time.Since(t0), n) / 1000
	if hit, ok := v["serve.hit_post_us_p50"]; ok { // serve_mix measured the same hit over a socket
		v["serve.http_overhead_us"] = hit - v["serve.handler_hit_us"]
	}
	return nil
}
