# Tier-1 gate: everything must build, vet clean, pass the full suite,
# and pass the race detector in short mode (short bounds the ~10x race
# slowdown on the heavier sweep tests). This is what CI runs on every
# change.
.PHONY: check
check:
	go build ./...
	go vet ./...
	go test ./...
	go test -race -short ./...

.PHONY: test
test:
	go build ./... && go test ./...

# Regenerate every figure on a full worker pool and record the sweep's
# execution metrics (wall-clock, speedup, events/sec) in BENCH_sweep.json,
# then run the large-scale projection — the standard 32–1024 grid plus
# the 2048–16384 scaling envelope and the 1024–16384 crossbar-vs-fat-tree
# topology sweep — and record kernel performance (events/sec,
# allocs/event, peak heap, microbenchmark and sweep numbers) plus the
# topology table in BENCH_kernel.json. Both commands draw clusters from the reuse pool
# (-reuse, on by default). -engine flow adds the flow-engine scaling
# grid (65536–1048576 nodes, recorded as flow_sweep); -jobs adds the
# multi-tenant sweep (concurrent jobs × oversubscription × placement,
# recorded as tenancy_sweep).
.PHONY: bench
bench:
	go run ./cmd/abbench -fig all -ablations -parallel 0 -sweepjson BENCH_sweep.json
	go run ./cmd/abscale -sizes 32,128,512,1024 -iters 100 -parallel 0 \
		-toposizes 1024,2048,4096,8192,16384 -topoiters 6 \
		-pdessize 16384 -pdeslps 1,2,4 -pdesiters 6 \
		-engine flow -flowsizes 65536,262144,1048576 -flowiters 3 \
		-flowpdessizes 65536,262144,1048576 -flowpdeslps 1,2,4 -flowpdesiters 3 \
		-jobs 4,8,16 -oversub 1,8 -place random,greedy \
		-csv -benchjson BENCH_kernel.json

# Profile the scaling sweep: CPU and heap profiles of the standard grid,
# ready for `go tool pprof abscale.cpu.pprof`.
.PHONY: profile
profile:
	go run ./cmd/abscale -sizes 32,128,512,1024 -iters 100 -bigsizes "" \
		-cpuprofile abscale.cpu.pprof -memprofile abscale.mem.pprof
	@echo "wrote abscale.cpu.pprof and abscale.mem.pprof"

# The kernel throughput benchmark alone (Go benchmark form), then the
# process-park microbenchmarks of internal/sim at 1 and 2 Ps: a switch
# that took a round trip through the Go scheduler would read slower at 2.
.PHONY: bench-kernel
bench-kernel:
	go test ./internal/bench -run '^$$' -bench BenchmarkKernelEventsPerSec -benchtime 3x -count 1
	go test ./internal/sim -run '^$$' -bench 'BenchmarkProc(Switch|SelfResume)' -cpu 1,2 -count 1

# Run the scenario service locally (POST specs to :8080/run).
.PHONY: serve
serve:
	go run ./cmd/abserve -addr :8080 -cachedir /tmp/abserve-cache

# Performance-regression gate: rerun the kernel microbenchmark and fail
# if events/sec or allocs/event degrade beyond a CI95-derived noise band
# vs the numbers committed in BENCH_kernel.json. allocs/event is
# machine-independent and gated tightly; events/sec is host-dependent,
# so its band is generous — the gate catches collapses, not hosts.
.PHONY: gate
gate:
	go run ./cmd/abgate -bench BENCH_kernel.json -v

# Load-test the scenario service: an in-process server, 8 concurrent
# clients, 150 requests over a small cycling scenario set — cold
# computes, warm cache hits and single-flight dedups in one sub-minute
# run. Fails on any non-200 or if the cache never warmed.
.PHONY: loadtest
loadtest:
	go run ./cmd/abload -n 150 -c 8 -nodes 64

# Paranoia target: the figure set must be byte-identical serial vs
# parallel. Slow; the same property is asserted by TestParallelDeterminism.
.PHONY: determinism
determinism:
	go run ./cmd/abbench -fig all -iters 60 -csv -parallel 1 -sweepjson /tmp/abred_s.json > /tmp/abred_serial.txt
	go run ./cmd/abbench -fig all -iters 60 -csv -parallel 8 -sweepjson /tmp/abred_p.json > /tmp/abred_parallel.txt
	cmp /tmp/abred_serial.txt /tmp/abred_parallel.txt
	@echo "serial and parallel figure output byte-identical"
