GO ?= go

.PHONY: build vet test test-race test-chaos fuzz-smoke cover check bench bench-storage bench-serve bench-snapshot bench-incr bench-wal bench-plan bench-load

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build vet
	$(GO) test ./...

# test-race is part of tier-1 verification: the full suite under the race
# detector, plus one short iteration of the parallel-evaluation benchmarks
# (E1 graph statistics and E11 path-pattern reasoning) so the sharded
# fixpoint and the concurrent statistics tasks run under -race at benchmark
# scale too. The cancellation / trace-determinism tests rerun with -count=3:
# they interrupt the worker pool mid-fan-out and compare run traces across
# worker counts, the shapes most likely to surface a scheduling-dependent
# race.
test-race: build
	$(GO) test -race ./...
	$(GO) test -race -count=3 -run 'TestCancel|TestTimeout|TestCallerDeadline|TestGoldenTrace|TestTraceSequentialFallbacks|TestLayeredConcurrentIndexBuild' ./internal/vadalog/
	$(GO) test -race -count=3 -run 'TestFrozenConcurrentReaders|TestFrozenQueryConcurrent|TestConcurrentFrozenReaders' ./internal/pg/ ./internal/metalog/ ./internal/symtab/
	$(GO) test -race -count=2 -run 'TestServeSoak|TestConcurrentQueriesShareSnapshot' ./internal/server/
	$(GO) test -race -count=2 -run 'TestConcurrentBulkIngest' ./internal/pg/
	$(GO) test -race -run '^$$' -bench 'BenchmarkE11DescFrom|BenchmarkE1GraphStats' -benchtime 1x .

# test-chaos sweeps every registered fault-injection site across error and
# panic modes (see internal/instance/chaos_test.go and
# internal/vadalog/fault_test.go), asserting the atomicity invariant,
# panic containment, and goroutine hygiene. -count=2 reruns the sweep so a
# site left armed or a counter left dirty by the first pass fails the second.
test-chaos: build
	$(GO) test -count=2 -run 'TestChaos|TestStratum|TestShard|TestBestEffort|TestRetry|TestWriteSites|TestMaterializeFlushErrorRollsBack' ./internal/instance/ ./internal/vadalog/ ./internal/pg/ ./internal/fault/ ./internal/server/
	$(GO) test -count=2 -run 'TestWriteFileFaultsLeaveNoPartialFile|TestOpenMmapFaultFallsBack' ./internal/snapfile/
	$(GO) test -count=2 -run 'TestReloadCorruptSnapshotKeepsServing|TestSnapshotMmapFaultStillServes' ./internal/server/
	$(GO) test -count=2 -run 'TestFault|TestChaos' ./internal/wal/

# fuzz-smoke gives each parser fuzz target a short budget — enough to shake
# out regressions in the corpus without turning CI into a fuzzing farm.
fuzz-smoke: build
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime 10s -run '^$$' ./internal/metalog/
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime 10s -run '^$$' ./internal/gsl/
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime 10s -run '^$$' ./internal/vadalog/
	$(GO) test -fuzz '^FuzzDecodeQuery$$' -fuzztime 10s -run '^$$' ./internal/server/
	$(GO) test -fuzz '^FuzzDecodeMutation$$' -fuzztime 10s -run '^$$' ./internal/server/
	$(GO) test -fuzz '^FuzzOpenSnapshot$$' -fuzztime 10s -run '^$$' ./internal/snapfile/
	$(GO) test -fuzz '^FuzzReplayWAL$$' -fuzztime 10s -run '^$$' ./internal/wal/
	$(GO) test -fuzz '^FuzzPlanPattern$$' -fuzztime 10s -run '^$$' ./internal/metalog/
	$(GO) test -fuzz '^FuzzExplain$$' -fuzztime 10s -run '^$$' ./internal/server/
	$(GO) test -fuzz '^FuzzBulkLoadBatch$$' -fuzztime 10s -run '^$$' ./internal/pg/

# cover enforces the per-package coverage floors on the newest subsystems —
# the serving layer and the on-disk snapshot format both carry the strictest
# gate (70% of statements) so their suites cannot silently rot. Profiles are
# written to temp files and removed; only the threshold checks are
# CI-visible.
cover: build
	@$(GO) test -coverprofile=cover_server.out ./internal/server/
	@total=$$($(GO) tool cover -func=cover_server.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	rm -f cover_server.out; \
	echo "internal/server coverage: $$total% (floor 70%)"; \
	awk -v t="$$total" 'BEGIN { exit (t + 0 >= 70.0) ? 0 : 1 }' || \
	{ echo "FAIL: internal/server coverage $$total% is below the 70% floor"; exit 1; }
	@$(GO) test -coverprofile=cover_snapfile.out ./internal/snapfile/
	@total=$$($(GO) tool cover -func=cover_snapfile.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	rm -f cover_snapfile.out; \
	echo "internal/snapfile coverage: $$total% (floor 70%)"; \
	awk -v t="$$total" 'BEGIN { exit (t + 0 >= 70.0) ? 0 : 1 }' || \
	{ echo "FAIL: internal/snapfile coverage $$total% is below the 70% floor"; exit 1; }
	@$(GO) test -coverprofile=cover_overlay.out ./internal/overlay/
	@total=$$($(GO) tool cover -func=cover_overlay.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	rm -f cover_overlay.out; \
	echo "internal/overlay coverage: $$total% (floor 70%)"; \
	awk -v t="$$total" 'BEGIN { exit (t + 0 >= 70.0) ? 0 : 1 }' || \
	{ echo "FAIL: internal/overlay coverage $$total% is below the 70% floor"; exit 1; }
	@$(GO) test -coverprofile=cover_wal.out ./internal/wal/
	@total=$$($(GO) tool cover -func=cover_wal.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	rm -f cover_wal.out; \
	echo "internal/wal coverage: $$total% (floor 70%)"; \
	awk -v t="$$total" 'BEGIN { exit (t + 0 >= 70.0) ? 0 : 1 }' || \
	{ echo "FAIL: internal/wal coverage $$total% is below the 70% floor"; exit 1; }
	@$(GO) test -coverprofile=cover_plan.out ./internal/plan/
	@total=$$($(GO) tool cover -func=cover_plan.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	rm -f cover_plan.out; \
	echo "internal/plan coverage: $$total% (floor 70%)"; \
	awk -v t="$$total" 'BEGIN { exit (t + 0 >= 70.0) ? 0 : 1 }' || \
	{ echo "FAIL: internal/plan coverage $$total% is below the 70% floor"; exit 1; }
	@$(GO) test -coverprofile=cover_pg.out ./internal/pg/
	@total=$$($(GO) tool cover -func=cover_pg.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	rm -f cover_pg.out; \
	echo "internal/pg coverage: $$total% (floor 70%)"; \
	awk -v t="$$total" 'BEGIN { exit (t + 0 >= 70.0) ? 0 : 1 }' || \
	{ echo "FAIL: internal/pg coverage $$total% is below the 70% floor"; exit 1; }

# check is the tier-1 gate: vet + full suite, the race-detector pass, the
# chaos sweep, the fuzz smoke test, and the coverage floor.
check: test test-race test-chaos fuzz-smoke cover

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-storage captures the storage microbenchmarks (EXPERIMENTS.md E19) —
# frozen vs mutable label scans and adjacency walks in internal/pg, and the
# hashed vs string-keyed Relation insert/probe paths in internal/vadalog —
# into BENCH_storage.json via cmd/benchjson. The committed file is the
# baseline this refactor is judged against; regenerate on comparable hardware
# before comparing numbers.
bench-storage: build
	$(GO) test -run '^$$' -bench 'BenchmarkStorage' -benchmem ./internal/pg/ ./internal/vadalog/ | tee BENCH_storage.txt
	$(GO) run ./cmd/benchjson < BENCH_storage.txt > BENCH_storage.json
	rm -f BENCH_storage.txt

# bench-serve captures the E20 serving benchmarks (EXPERIMENTS.md) — /query
# throughput over a real listener at 1/2/8 concurrent clients, the
# latency-bound variant whose C8/C1 ratio is the concurrency acceptance
# criterion, and the cache fast path — into BENCH_serve.json via
# cmd/benchjson. Fixed iteration counts keep the wall-clock bounded; the
# committed file is the baseline, regenerate on comparable hardware before
# comparing numbers.
bench-serve: build
	$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchtime 200x -benchmem ./internal/server/ | tee BENCH_serve.txt
	$(GO) run ./cmd/benchjson < BENCH_serve.txt > BENCH_serve.json
	rm -f BENCH_serve.txt

# bench-snapshot captures the E21 cold-start benchmarks (EXPERIMENTS.md) —
# parse+freeze of the E19 reference JSON versus snapfile.Open of the same
# graph (validation-only, and with the lazy facade forced), plus the encode
# path — into BENCH_snapshot.json via cmd/benchjson. The acceptance target
# is snapfile-open at least 50x faster than parse-freeze; the committed
# file is the baseline, regenerate on comparable hardware before comparing.
bench-snapshot: build
	$(GO) test -run '^$$' -bench 'BenchmarkSnapshot' -benchtime 2s -benchmem ./internal/snapfile/ | tee BENCH_snapshot.txt
	$(GO) run ./cmd/benchjson < BENCH_snapshot.txt > BENCH_snapshot.json
	rm -f BENCH_snapshot.txt

# bench-incr captures the E22 incremental-maintenance benchmarks
# (EXPERIMENTS.md) — one 0.1% edge-churn batch through Maintainer.Apply
# versus the full fixpoint rebuild it replaces — into BENCH_incr.json via
# cmd/benchjson. The acceptance criterion (churn batch < 1% of rebuild wall
# time) is enforced on every `go test ./...` by TestIncrChurnRatio; the
# committed file is the baseline, regenerate on comparable hardware before
# comparing numbers.
bench-incr: build
	$(GO) test -run '^$$' -bench 'BenchmarkIncr' -benchmem ./internal/vadalog/ | tee BENCH_incr.txt
	$(GO) run ./cmd/benchjson < BENCH_incr.txt > BENCH_incr.json
	rm -f BENCH_incr.txt

# bench-wal captures the E23 durability benchmarks (EXPERIMENTS.md) —
# /mutate latency (mean plus p50/p99 custom metrics) with the write-ahead
# log disabled and under each fsync policy — into BENCH_wal.json via
# cmd/benchjson, and runs the E23 acceptance gate: the "interval" policy
# must cost less than 10% over running with no WAL at all. The committed
# file is the baseline, regenerate on comparable hardware before comparing.
bench-wal: build
	$(GO) test -run '^$$' -bench 'BenchmarkWALMutate' -benchtime 300x -benchmem ./internal/server/ | tee BENCH_wal.txt
	RUN_WAL_GATE=1 $(GO) test -run '^TestWALIntervalOverheadGate$$' -count=1 ./internal/server/
	$(GO) run ./cmd/benchjson < BENCH_wal.txt > BENCH_wal.json
	rm -f BENCH_wal.txt

# bench-plan captures the E24 query-planning benchmarks (EXPERIMENTS.md) —
# one company's ownership-closure point query over the E1 shareholding graph,
# evaluated through the written-order program versus the cost-based plan
# (join reordering + demand transformation) — into BENCH_plan.json via
# cmd/benchjson, and runs the E24 acceptance gate: the planned point query
# must evaluate at least 5x faster than the unplanned one. The committed
# file is the baseline, regenerate on comparable hardware before comparing.
bench-plan: build
	$(GO) test -run '^$$' -bench 'BenchmarkPlanPointQuery' -benchtime 30x -benchmem ./internal/metalog/ | tee BENCH_plan.txt
	RUN_PLAN_GATE=1 $(GO) test -run '^TestPlanPointQueryGate$$' -count=1 ./internal/metalog/
	$(GO) run ./cmd/benchjson < BENCH_plan.txt > BENCH_plan.json
	rm -f BENCH_plan.txt

# bench-load captures the E25 streaming-ingest benchmarks (EXPERIMENTS.md) —
# stream-vs-materialize load legs at 1M/10M/100M edges, each in a fresh child
# process so peak RSS (VmHWM) is per-leg, plus the delayed-backend worker
# floor pair — into BENCH_load.json via cmd/benchjson (-strip-procs so gate
# lookups are name-stable), then runs the E25 acceptance gates: W=8 ingest at
# least 3x W=1 edges/sec against the backend floor, and stream peak RSS at
# most 25% of the materializing generator's at 10M edges. The 100M leg needs
# ~20 GB and a few minutes; the committed file is the baseline, regenerate on
# comparable hardware before comparing numbers.
bench-load: build
	LOADBENCH_FULL=1 $(GO) test -run '^$$' -bench 'BenchmarkLoad' -benchtime 1x -timeout 60m ./internal/fingraph/ | tee BENCH_load.txt
	$(GO) run ./cmd/benchjson -strip-procs < BENCH_load.txt > BENCH_load.json
	RUN_LOAD_GATE=1 $(GO) test -run '^TestBenchLoadGates$$' -count=1 ./internal/fingraph/
	rm -f BENCH_load.txt
