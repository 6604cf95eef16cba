#!/bin/sh
# check.sh — the repository's tier-1 gate. Every change must pass this
# before merging; CI and the bench/fuzz harnesses assume it is green.
#
#   ./check.sh          # full gate
#
# Steps: formatting, static analysis (go vet + the repo's own plan/
# script analyzers via the test suite), build, tests, one pass of the
# race detector over the packages with concurrency plus a name floor
# for its load-bearing suites, and the CLI smokes.
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
# The benchmark is its own module; vet it from inside it.
echo "== scopevet (benchmark module) =="
(cd benchmark && go run ../cmd/scopevet ./...) || fail "scopevet found violations in benchmark/"

echo "== go build =="
go build ./... || fail "build failed"

echo "== go test =="
go test ./... || fail "tests failed"

# One pass of the race detector over every package with concurrency:
# the optimizer's round workers and golden sweep, core propagation, the
# executor's worker pool, single-flight spools, kernels and spill
# paths, the shared session and its one exit, the MQO selector's
# concurrent seeding, the multi-tenant service and its event log, and
# the lock-light observability layer. Whole packages, -count=1: a test
# cannot be skipped by a stale cache or a stale -run pattern.
echo "== go test -race (opt, core, memo, exec, share, mqo, serve, obs) =="
go test -race -count=1 ./internal/opt/ ./internal/core/ ./internal/memo/ ./internal/exec/ \
	./internal/share/ ./internal/mqo/ ./internal/serve/ ./internal/obs/... || fail "race tests failed"

# Name floor: the suites above that are load-bearing for the race
# coverage, by exact name. `go test -run NoSuchName` prints "no tests to
# run" and exits 0, so running them by pattern never noticed a rename;
# listing the package and requiring each name does. The lint floor holds
# P6's exact-identity regressions.
floor() {
	pkg=$1
	shift
	have=$(go test -list . "$pkg") || fail "name floor: go test -list $pkg failed"
	for name in "$@"; do
		echo "$have" | grep -qx "$name" ||
			fail "name floor: $pkg has no $name (renamed or deleted? its race coverage went with it)"
	done
}
echo "== name floor (race-covered suites still exist by name) =="
floor ./internal/exec/ TestFileStoreRemoveConcurrent TestBroadcastSpoolMetering \
	TestBroadcastSpoolMeteringDeterministic TestConcurrentRunsOnOneCluster \
	TestConcurrentRunRegistryMerge TestParallelMatchesSequentialWorkloads \
	TestParallelMatchesSequentialFuzz TestSpoolSingleFlightUnderParallelism \
	TestVectorBinKernelsMatchScalar TestVectorConstAndNestedExprs TestVectorCSEMemoHits \
	TestVectorGuardedShortCircuit TestVectorSelFromPredStrictness TestVectorBuilderDegrade \
	TestVectorGatherConcat TestVectorCompileProgUnknownColumn \
	TestSpillMeteringAndCleanup TestSpillChargedAtDiskBandwidth TestSpillDisabledWithoutBudget \
	TestSimulatedSecondsCountsSpillTraffic TestEngineDiffWorkloads TestEngineDiffFuzz \
	TestEngineDiffForcedSpill TestEngineDiffWarmCacheScan TestCacheScanAttachesSpoolPartitions
floor ./internal/opt/ TestParallelRoundEquivalence TestBudgetExpiryDeterminism \
	TestOptimizerGolden TestOptimizeAllocCeiling
floor ./internal/share/ TestSessionPublishMatchesReports TestConcurrentSessionsRegistryMerge \
	TestSessionPublishAfterFailedRun TestSessionMissCountDedup TestSessionConcurrentRuns \
	TestCachePinKeepsArtifact TestSessionOptimizerPanicReleasesPins \
	TestSessionFailedRunRemovesArtifacts TestSessionDerivedArtifactKeepsProvenance
floor ./internal/lint/ TestP6SilentOnFingerprintCollision TestP6WarnsOnTrueRebuild
floor ./internal/serve/ TestServeConcurrentClients TestServeCrossTenantSharing TestFoldGroups \
	TestServeBackpressure TestServeShutdownDrains TestEventLogPerRequest TestEventLogFailure \
	TestEventLogAdditivity TestEventLogConcurrency TestEventLogWidthDeterminism \
	TestServePanicRecovered TestServeFailedRunLeavesNoArtifact
floor ./internal/mqo/ TestSelectGreedyMatchesOracle TestSelectionDeterministicAcrossWorkers \
	TestEnactBitIdentical

# The committed cost-of-one-optimize numbers (EXPERIMENTS E20) come
# from these benchmarks; three iterations keep them from rotting.
echo "== opt benchmark smoke (BenchmarkOptLS1, BenchmarkOptS4) =="
go test -run '^$' -bench 'OptLS1|OptS4' -benchtime 3x -benchmem . ||
	fail "optimizer benchmark smoke failed"

# MQO is an offline planner (scopemqo, benchrepro -fig mqo); the
# service must not link it back onto the request path.
echo "== serve does not depend on mqo =="
if go list -deps ./internal/serve | grep -qx 'repro/internal/mqo'; then
	fail "internal/serve depends on internal/mqo"
fi

# The service schedules; how a script compiles is the session's
# business (share.Session.Compile is the one compile of a request).
echo "== serve does not compile scripts =="
if go list -f '{{join .Imports "\n"}}' ./internal/serve |
	grep -qxE 'repro/internal/(logical|core|memo|relop)'; then
	fail "internal/serve imports logical, core, memo or relop"
fi

# A subexpression has one identity (core.Subexpr) and a spool one key
# (plan.SpoolID); neither is rendered back into a string map key.
echo "== no string-rendered identity keys =="
if grep -rnE --include='*.go' 'fmt\.Sprintf\("(%d\|%s|%016x\|%s)"' internal | grep -v '_test\.go:'; then
	fail "a string-rendered spool or subexpression key is back; use plan.SpoolID or core.Subexpr"
fi

# The row operators are the test oracle (rowops.go); production exec
# code, the cache-hit path included, must not call them.
echo "== exec production code does not call the row oracle =="
if find internal/exec -maxdepth 1 -name '*.go' ! -name '*_test.go' ! -name rowops.go |
	xargs grep -nE '\br\.(extract|cacheScan|filter|project|sortOp|repartition|scatter|aggregate|join|union)\('; then
	fail "a non-test file in internal/exec other than rowops.go calls a row-oracle operator"
fi

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
