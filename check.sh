#!/bin/sh
# check.sh — the repository's tier-1 gate. Every change must pass this
# before merging; CI and the bench/fuzz harnesses assume it is green.
#
#   ./check.sh          # full gate
#
# Steps: formatting, static analysis (go vet + the repo's own plan/
# script analyzers via the test suite), build, tests, and the race
# detector on the packages with concurrency (optimizer rounds, core
# propagation, cluster simulator).
set -e

cd "$(dirname "$0")"

fail() {
	echo "check.sh: $1" >&2
	exit 1
}

echo "== gofmt =="
# Fixture packages under internal/vet/testdata deliberately contain
# unidiomatic code for the analyzers to flag; everything else must be
# formatted (cmd/scopevet and internal/vet included).
unformatted=$(find . -name '*.go' -not -path './internal/vet/testdata/*' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	fail "gofmt: files above need formatting"
fi

echo "== go vet =="
go vet ./... || fail "go vet failed"

# scopevet: the repo's own Go-source analyzers (determinism, metered
# IO, guarded-by convention, diagnostic-code catalogs). The tree must
# stay finding-free; suppressions live in source with reasons.
echo "== scopevet =="
go run ./cmd/scopevet ./... || fail "scopevet found violations"

echo "== go build =="
go build ./... || fail "build failed"

echo "== go test =="
go test ./... || fail "tests failed"

echo "== go test -race (opt, core, memo, exec, share, mqo) =="
go test -race ./internal/opt/ ./internal/core/ ./internal/memo/ ./internal/exec/ ./internal/share/ ./internal/mqo/ || fail "race tests failed"

# The parallel-executor suites are the load-bearing coverage for the
# worker pool, single-flight spools, and concurrent Cluster.Run — run
# them by name so a renamed or skipped test cannot silently drop the
# race coverage.
echo "== go test -race (parallel exec suites) =="
go test -race -count=1 -run 'Parallel|Concurrent|SingleFlight|BroadcastSpool' ./internal/exec/ ||
	fail "parallel exec race tests failed"

# Same discipline for the phase-2 round engine: the equivalence sweep
# and budget-expiry tests are the load-bearing coverage for the
# parallel round workers, and the golden sweep (every plan, cost,
# counter and round trace at Workers 1 and 8) and the allocation
# ceiling are the law the value-typed search is held to, so run them
# by name under the race detector.
echo "== go test -race (parallel phase-2 suites) =="
go test -race -count=1 -run 'ParallelRound|Equivalence|BudgetExpiry|OptimizerGolden|OptimizeAllocCeiling' ./internal/opt/ ||
	fail "parallel phase-2 race tests failed"

# The committed cost-of-one-optimize numbers (EXPERIMENTS E20) come
# from these benchmarks; three iterations keep them from rotting.
echo "== opt benchmark smoke (BenchmarkOptLS1, BenchmarkOptS4) =="
go test -run '^$' -bench 'OptLS1|OptS4' -benchtime 3x -benchmem . ||
	fail "optimizer benchmark smoke failed"

# The observability layer is lock-light shared state by design
# (atomic metrics registry, one-mutex tracer, one-mutex event log) —
# always race-test it, plus the registry merge invariants that back
# batch reporting.
echo "== go test -race (obs + eventlog + registry merge suites) =="
go test -race -count=1 ./internal/obs/ ./internal/obs/eventlog/ || fail "obs race tests failed"
go test -race -count=1 -run 'RegistryMerge|SessionPublish' ./internal/exec/ ./internal/share/ ||
	fail "registry merge race tests failed"

# The shared session and the multi-tenant service are the load-bearing
# concurrency surfaces for cross-query sharing: run the concurrent-Run
# and concurrent-clients suites by name under the race detector so a
# rename cannot silently drop the coverage.
echo "== go test -race (share session + serve concurrency suites) =="
go test -race -count=1 -run 'SessionConcurrent|SessionMissCount|CachePin' ./internal/share/ ||
	fail "share concurrency race tests failed"
go test -race -count=1 -run 'ServeConcurrent|ServeCrossTenant|FoldGroups|ServeBackpressure|ServeShutdown' ./internal/serve/ ||
	fail "serve concurrency race tests failed"

# The workload-level MQO selector seeds its benefit heap concurrently
# and must stay deterministic at any worker width. Run its suites by
# name under the race detector so a rename cannot silently drop the
# coverage.
echo "== go test -race (mqo selection suites) =="
go test -race -count=1 -run 'SelectionDeterministicAcrossWorkers|SelectGreedyMatchesOracle|EnactBitIdentical' ./internal/mqo/ ||
	fail "mqo selection race tests failed"

# MQO is an offline planner (scopemqo, benchrepro -fig mqo); the
# service must not link it back onto the request path.
echo "== serve does not depend on mqo =="
if go list -deps ./internal/serve | grep -qx 'repro/internal/mqo'; then
	fail "internal/serve depends on internal/mqo"
fi

# The query event log is written from every request goroutine and read
# by the flight recorder, the sink, and the introspection endpoints:
# run the eventlog suites by name under the race detector (ring bound,
# well-formed JSON under concurrency, counter additivity, byte-equal
# canonical streams across worker widths).
echo "== go test -race (serve event log suites) =="
go test -race -count=1 -run 'EventLog' ./internal/serve/ ||
	fail "serve event log race tests failed"

# The executor's load-bearing coverage: kernel-vs-scalar
# differentials, spill accounting, and the production-vs-row-oracle
# differentials (cold plans, forced-spill runs, warm CacheScan plans)
# — by name, under the race detector, so a rename cannot silently
# drop them.
echo "== go test -race (kernel + spill + oracle-diff suites) =="
go test -race -count=1 -run 'Vector|Spill|EngineDiff' ./internal/exec/ ||
	fail "kernel/spill/oracle-diff race tests failed"

# The benchmark is its own module outside the tier-1 line; run its
# smoke test here so a change that breaks what BENCHMARK.json drives
# fails before merge.
echo "== benchmark smoke (cd benchmark && go test ./...) =="
(cd benchmark && go test ./...) || fail "benchmark smoke test failed"

# Optimizer benchmark artifact: one generation pass must emit a
# BENCH_opt.json that its own schema validator accepts.
echo "== opt bench smoke (benchrepro -fig opt) =="
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
out=$(go run ./cmd/benchrepro -fig opt -iters 1 -out "$tmpdir/BENCH_opt.json") ||
	fail "opt bench smoke run failed"
echo "$out" | tail -1
echo "$out" | grep -q 'schema ok' || fail "opt bench smoke produced no schema-ok line"

# Trace smoke: a traced EXPLAIN ANALYZE run must emit well-formed,
# non-empty Chrome trace_event JSON (scopetrace validates structure
# and span presence) and annotate plan nodes with actual row counts.
echo "== trace smoke (scoperun -trace -analyze + scopetrace) =="
out=$(go run ./cmd/scoperun -script s1 -machines 5 -workers 4 -analyze -trace "$tmpdir/trace.json") ||
	fail "trace smoke run failed"
echo "$out" | grep -q 'actual=' || fail "analyze output carries no actual row counts"
out=$(go run ./cmd/scopetrace "$tmpdir/trace.json") || fail "trace validation failed"
echo "$out"
echo "$out" | grep -q 'trace ok' || fail "trace file failed validation"

# Session batch mode over the example scripts: later scripts must hit
# the cross-query cache, and every script must match its cache-disabled
# baseline (scoperun exits nonzero on a mismatch).
echo "== session smoke (scoperun -session examples/session) =="
out=$(go run ./cmd/scoperun -session examples/session -machines 8 -workers 4) ||
	fail "session smoke run failed"
echo "$out"
echo "$out" | grep -q 'hits=1' || fail "session smoke run produced no cache hits"

# Workload-level MQO over the same example scripts: the merged-DAG
# selection must enact bit-identically to independent cold runs
# (scopemqo exits nonzero on a mismatch) and its ablation artifact
# must pass its own schema validator.
echo "== mqo smoke (scopemqo -session examples/session) =="
out=$(go run ./cmd/scopemqo -session examples/session -machines 8 -workers 4) ||
	fail "mqo smoke run failed"
echo "$out"
echo "$out" | grep -q 'mqo ok' || fail "mqo smoke produced no ok line"
echo "== mqo bench smoke (benchrepro -fig mqo) =="
out=$(go run ./cmd/benchrepro -fig mqo -mqoout "$tmpdir/BENCH_mqo.json") ||
	fail "mqo bench smoke run failed"
echo "$out" | tail -1
echo "$out" | grep -q 'schema ok' || fail "mqo bench smoke produced no schema-ok line"

# Service selftest: concurrent multi-tenant clients over one shared
# session must produce results bit-identical to cold sequential runs,
# with warm rounds served from the cross-client cache (scoped exits
# nonzero on any mismatch).
echo "== scoped smoke (scoped -selftest) =="
out=$(go run ./cmd/scoped -selftest -machines 8 -workers 4) ||
	fail "scoped selftest failed"
echo "$out"
echo "$out" | grep -q 'selftest ok' || fail "scoped selftest produced no ok line"

# Event-log replay: scopestat must recompute the committed 20-event
# fixture's sharing statistics exactly (the offline half of the
# additivity invariant the serve tests pin live).
echo "== scopestat replay smoke (scopestat -replay) =="
out=$(go run ./cmd/scopestat -replay cmd/scopestat/testdata/events.jsonl) ||
	fail "scopestat replay failed"
echo "$out" | head -1
echo "$out" | grep -q '^events=20 errors=0 ' || fail "scopestat replay totals diverge from the fixture"

echo "check.sh: all green"
