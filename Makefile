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

# Every wall-clock number the repository reports about itself: four
# workloads, each in its own process, end-to-end metrics as medians over
# repeated rounds with a host description (benchmark/README.md). Results
# land in .bench_build/results.json.
.PHONY: bench
bench:
	go run ./benchmark

# The traced run: per-layer probes, counters and spans
# (.bench_build/results.traced.json, spans.<workload>.json).
.PHONY: bench-trace
bench-trace:
	go run ./benchmark -trace 1

# Regenerate every figure of the paper plus the ablations. Virtual time
# only: the tables are deterministic per seed and go to stdout.
.PHONY: figures
figures:
	go run ./cmd/abbench -fig all -ablations -parallel 0

# The large-scale projection as CSV on stdout: the standard 32–1024
# grid, the 2048–16384 scaling envelope, the 1024–16384
# crossbar-vs-fat-tree topology sweep, the flow-engine grid
# (65536–1048576 nodes; its wall_ms and live_bytes columns are the only
# host-dependent ones) and the multi-tenant sweep. EXPERIMENTS.md quotes
# these tables.
.PHONY: scale
scale:
	go run ./cmd/abscale -sizes 32,128,512,1024 -iters 100 -parallel 0 \
		-toposizes 1024,2048,4096,8192,16384 -topoiters 6 \
		-engine flow -flowsizes 65536,262144,1048576 -flowiters 3 \
		-jobs 4,8,16 -oversub 1,8 -place random,greedy -csv

# Profile the scaling sweep: CPU and heap profiles of the standard grid,
# ready for `go tool pprof abscale.cpu.pprof`.
.PHONY: profile
profile:
	go run ./cmd/abscale -sizes 32,128,512,1024 -iters 100 -bigsizes "" \
		-cpuprofile abscale.cpu.pprof -memprofile abscale.mem.pprof
	@echo "wrote abscale.cpu.pprof and abscale.mem.pprof"

# The kernel microbenchmarks of internal/sim at 1 and 2 Ps. A process
# switch that took a round trip through the Go scheduler would read
# slower at 2. BenchmarkLPWindowEmpty (the shape of the benchmark's
# sim.lp_window_us probe) is a degenerate case and no target: with one
# event per LP per window nobody waits long enough to sleep, so at 2 Ps
# it reads the barrier's two cross-core cache-line hand-offs (0.5–2.5 µs)
# and at 1 P no barrier at all, where the channel pair it replaced read
# 0.7–1.2 µs by riding one P through runnext while real windows paid a
# futex wake-up each way. BenchmarkLPWindowUneven is nearer a real
# window; the figures of merit are sim.lp2_speedup.* in `make bench-trace`.
# BenchmarkTimerQueue is the event queue alone, at 4096 timers (in cache)
# and 262144 (out of cache, the largest flow_scale cell's rank count).
.PHONY: bench-kernel
bench-kernel:
	go test ./internal/sim -run '^$$' -bench 'BenchmarkProc(Switch|SelfResume)|BenchmarkLPWindow|BenchmarkTimerQueue' -cpu 1,2 -count 1

# Run the scenario service locally (POST specs to :8080/run).
.PHONY: serve
serve:
	go run ./cmd/abserve -addr :8080 -cachedir /tmp/abserve-cache

# One extraction recipe for the targets that compare against revision
# BASE: a `git archive` copy in wt/src under a temporary directory the
# shell removes on exit. Nothing is registered in .git.
extract_base = wt=$$(mktemp -d) && trap 'rm -rf "$$wt"' EXIT && mkdir "$$wt/src" && \
	git archive $(BASE) | tar -x -C "$$wt/src"

# Performance-regression gate: benchmark revision BASE and the working
# tree, three runs per workload each, and compare every workload ×
# end-to-end metric against the bounds in BENCHMARK.json. Exits 1 only
# on a REGRESSED row; a row whose run-to-run spread exceeds its bound
# prints as unresolved.
.PHONY: gate
gate:
	@test -n "$(BASE)" || { echo "usage: make gate BASE=<rev>" >&2; exit 2; }
	rm -rf .bench_build/gate
	$(extract_base) && \
		(cd "$$wt/src" && go run ./benchmark -runs 3 -out $(CURDIR)/.bench_build/gate/base)
	go run ./benchmark -runs 3 -out .bench_build/gate/head
	go run ./benchmark -compare .bench_build/gate/base/results.json .bench_build/gate/head/results.json

# Same-simulation check: build the four CLIs from revision BASE and
# from the working tree, run one fixed list of virtual-time
# commands on each side, and diff the outputs. Exits 1 and prints the
# diff on any difference; about 10 s per side. The list covers both
# engines, both tree shapes (radix 6: the topology-aware tree differs
# from the binomial one), lossy links, 0 and 2 LPs, tenancy, abapp
# (on both engines in two program shapes: halo + two reductions, and
# no halo + three) and abtrace's timeline (the paper's Fig. 2); the flow
# grid's wall_ms and live_bytes columns are the only host-dependent
# output and are cut before comparing.
define same_cmds
./abbench -fig all -ablations -iters 60 -csv > figs.csv && \
./abbench -fig topo -iters 40 -csv > topo.csv && \
./abbench -fig tenancy -iters 40 -csv > tenancy.csv && \
./abbench -fig loss -iters 40 -csv > loss.csv && \
./abscale -sizes 32,128 -iters 10 -bigsizes "" -toposizes 1024 -topoiters 3 -lps 2 -csv > scale.csv && \
./abscale -sizes 32,128 -iters 10 -bigsizes "" -toposizes 1024 -topoiters 3 -lps 2 -csv -loss 0.01 -faultseed 3 > scale_lossy.csv && \
./abscale -sizes 32 -iters 2 -bigsizes "" -engine flow -flowsizes 4096,65536 -flowiters 2 -lps 0 | $(same_cut) > flow_lps0.txt && \
./abscale -sizes 32 -iters 2 -bigsizes "" -engine flow -flowsizes 4096,65536 -flowiters 2 -lps 2 | $(same_cut) > flow_lps2.txt && \
./abscale -sizes 32 -iters 2 -bigsizes "" -engine flow -topo fattree:6 -flowsizes 48,54 -flowiters 3 | $(same_cut) > flow_radix6.txt && \
./abapp -nodes 64 -iters 20 > app.txt && \
./abapp -nodes 4096 -iters 5 -engine flow -topo fattree:16 > app_flow.txt && \
./abapp -nodes 512 -iters 8 -engine flow -topo fattree:8 -halo=false -reds 3 > app_flow_nohalo.txt && \
./abapp -nodes 64 -iters 8 -topo fattree:8 -halo=false -reds 3 > app_nohalo.txt && \
./abtrace -topo fattree:4 > trace.txt
endef
same_cut = awk '/^Flow-engine/ {f=1} f && NF==8 {print $$1,$$2,$$3,$$4,$$6,$$8; next} {print}'

.PHONY: same
same:
	@test -n "$(BASE)" || { echo "usage: make same BASE=<rev>" >&2; exit 2; }
	@$(extract_base) && mkdir "$$wt/base" "$$wt/head" && \
		(cd "$$wt/src" && go build -o "$$wt/base/" ./cmd/abbench ./cmd/abscale ./cmd/abapp ./cmd/abtrace) && \
		go build -o "$$wt/head/" ./cmd/abbench ./cmd/abscale ./cmd/abapp ./cmd/abtrace && \
		for side in base head; do (cd "$$wt/$$side" && $(same_cmds) && rm abbench abscale abapp abtrace) || exit 1; done && \
		diff -r "$$wt/base" "$$wt/head" && echo "same simulation as $(BASE): $$(ls "$$wt/head" | wc -l) outputs identical"

# Reachability check: which non-test functions does no entry point
# execute? An entry point is a cmd/ binary, an examples/ program,
# benchmark, or an exported name of package abred (exercised by the
# root package's tests). Everything is built with the toolchain's own
# coverage instrumentation (through GOFLAGS, so the abserve child that
# benchmark builds is instrumented too); then `make same`'s command
# list, the CLI surfaces it lacks (genetic placement, a lossy flow grid,
# a paper figure on a routed fabric, abtrace's JSON trace, abapp's other
# imbalance distributions), the five examples, the four benchmark workloads plain
# and traced, and the root package's tests all run. The functions left
# at 0 % outside benchmark/ and examples/ must be exactly the rows of reach.keep
# ("file function reason"): a function nothing reaches is deleted with
# its tests or kept with a written reason. Exits 1 and prints the
# difference otherwise. About 2 min on 2 cores: the plain benchmark runs
# beside the rest.
define reach_cmds
$(same_cmds) && \
./abscale -sizes 32 -iters 2 -bigsizes "" -jobs 4 -oversub 4 -place genetic -tenancynodes 64 -tenancyiters 2 -csv > /dev/null && \
./abscale -sizes 32 -iters 2 -bigsizes "" -engine flow -flowsizes 4096 -flowiters 2 -loss 0.02 > /dev/null && \
./abbench -fig 6 -iters 5 -topo fattree:8 -csv > /dev/null && \
./abtrace -topo fattree:4 -json trace.json > /dev/null && \
for d in exp pareto straggler none; do ./abapp -nodes 16 -iters 5 -dist $$d > /dev/null || exit 1; done && \
for e in dotsolver heterocluster largereduce quickstart skewoverlap; do ./$$e > /dev/null || exit 1; done
endef

.PHONY: reach
reach:
	@awk '!/^#/ && NF > 0 && NF < 3 {print "reach.keep:" NR ": row without a reason: " $$0; bad = 1} END {exit bad}' reach.keep
	@wt=$$(mktemp -d) && trap 'kill $$plain 2> /dev/null; rm -rf "$$wt"' EXIT && mkdir "$$wt/bin" "$$wt/cov" && \
		export GOCOVERDIR="$$wt/cov" GOFLAGS='-cover -coverpkg=./...' && \
		go build -o "$$wt/bin/" ./cmd/... ./examples/... ./benchmark && \
		{ "$$wt/bin/benchmark" -seconds 1 -out "$$wt/plain" > "$$wt/plain.log" 2>&1 & plain=$$!; } && \
		(cd "$$wt/bin" && $(reach_cmds)) && \
		"$$wt/bin/benchmark" -seconds 1 -trace 1 -out "$$wt/traced" > "$$wt/traced.log" 2>&1 && \
		go test . -args -test.gocoverdir="$$wt/cov" > /dev/null && \
		wait $$plain || { cat "$$wt"/*.log; exit 1; } && \
		go tool covdata func -i="$$wt/cov" | \
		awk '$$NF == "0.0%" && $$1 !~ /^abred\/(benchmark|examples)\// {sub(/^abred\//, "", $$1); sub(/:[0-9]+:$$/, "", $$1); print $$1, $$2}' | sort > "$$wt/zero" && \
		awk '!/^#/ && NF > 0 {print $$1, $$2}' reach.keep | sort | diff - "$$wt/zero" > "$$wt/diff" \
		&& echo "reach: $$(wc -l < "$$wt/zero") unreached functions, each with its reason in reach.keep" \
		|| { echo "reach: reach.keep (<) differs from the measured 0 % set (>):"; cat "$$wt/diff"; exit 1; }

# Load-test the scenario service: a real abserve child under the
# benchmark's closed loop of 2 clients for 5 s — cold computes, cache
# hits, single-flight dedups and bad specs. Fails unless every response
# was the expected one.
.PHONY: loadtest
loadtest:
	go run ./benchmark -workload serve_mix -seconds 5 | tee /dev/stderr | grep -q '^{"correct":true'

# Paranoia target: the figure set must be byte-identical serial vs
# parallel. Slow; the same property is asserted by TestParallelDeterminism.
.PHONY: determinism
determinism:
	go run ./cmd/abbench -fig all -iters 60 -csv -parallel 1 > /tmp/abred_serial.txt
	go run ./cmd/abbench -fig all -iters 60 -csv -parallel 8 > /tmp/abred_parallel.txt
	cmp /tmp/abred_serial.txt /tmp/abred_parallel.txt
	@echo "serial and parallel figure output byte-identical"
