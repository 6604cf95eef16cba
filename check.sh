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

# step closes the running step, printing its elapsed seconds, and
# opens the next one under a header; step with no name closes the last.
started=""
step() {
	now=$(date +%s.%N)
	[ -z "$started" ] || awk -v a="$started" -v b="$now" 'BEGIN { printf "   (%.1f s)\n", b - a }'
	started=$now
	[ -z "$1" ] || echo "== $1 =="
}

fail() {
	step
	echo "check.sh: $1" >&2
	exit 1
}

step "gofmt"
# Fixture packages under internal/vet/testdata deliberately contain
# unidiomatic code for the analyzers to flag; everything else must be
# formatted (cmd/scopevet and internal/vet included).
unformatted=$(find . -name '*.go' -not -path './internal/vet/testdata/*' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	fail "gofmt: files above need formatting"
fi

step "go vet"
go vet ./... || fail "go vet failed"

# scopevet: the repo's own Go-source analyzers (determinism, metered
# IO, guarded-by convention, diagnostic-code catalogs). The tree must
# stay finding-free; suppressions live in source with reasons.
step "scopevet"
go run ./cmd/scopevet ./... || fail "scopevet found violations"
# The benchmark is its own module; vet it from inside it.
step "scopevet (benchmark module)"
(cd benchmark && go run ../cmd/scopevet ./...) || fail "scopevet found violations in benchmark/"

step "go build"
go build ./... || fail "build failed"

step "go test"
go test ./... || fail "tests failed"

# One pass of the race detector over every package with concurrency:
# the optimizer's round workers and golden sweep, core propagation, the
# executor's worker pool, single-flight spools, kernels and spill
# paths, the shared session and its one exit, the MQO selector's
# concurrent seeding, the multi-tenant service and its event log, and
# the lock-light observability layer, plus the differential harness's
# comparator (its matrix runs in exec). Whole packages, -count=1: a test
# cannot be skipped by a stale cache or a stale -run pattern.
step "go test -race (opt, core, memo, exec, share, mqo, serve, obs, difftest)"
go test -race -count=1 ./internal/opt/ ./internal/core/ ./internal/memo/ ./internal/exec/ \
	./internal/share/ ./internal/mqo/ ./internal/serve/ ./internal/obs/... ./internal/difftest/ || fail "race tests failed"

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
step "name floor (race-covered suites still exist by name)"
floor ./internal/exec/ TestFileStoreRemoveConcurrent TestBroadcastSpoolMetering \
	TestBroadcastSpoolMeteringDeterministic TestConcurrentRunsOnOneCluster \
	TestConcurrentRunRegistryMerge TestSpoolSingleFlightUnderParallelism \
	TestVectorBinKernelsMatchScalar TestVectorConstAndNestedExprs TestVectorCSEMemoHits \
	TestVectorGuardedShortCircuit TestVectorSelFromPredStrictness TestVectorBuilderDegrade \
	TestVectorGatherConcat TestVectorCompileProgUnknownColumn \
	TestSpillMeteringAndCleanup TestSpillChargedAtDiskBandwidth TestSpillDisabledWithoutBudget \
	TestSimulatedSecondsCountsSpillTraffic TestDifferential TestCacheScanAttachesSpoolPartitions \
	TestSpillNamespacesDisjointAcrossClusters TestFileStoreVersionTracking TestFileStoreForgetsRemovedPaths
floor ./internal/core/ TestIdentifyRunsOncePerMemo
floor ./internal/opt/ TestParallelRoundEquivalence TestBudgetExpiryDeterminism \
	TestOptimizerGolden TestOptimizeAllocCeiling TestPlanHitEqualsSearch TestPlanKeyCoversOptions \
	TestArtifactsOnePerSpool
floor ./internal/share/ TestSessionPublishMatchesReports TestConcurrentSessionsRegistryMerge \
	TestSessionPublishAfterFailedRun TestSessionMissCountDedup \
	TestCachePinKeepsArtifact TestSessionOptimizerPanicReleasesPins \
	TestSessionFailedRunRemovesArtifacts TestSessionDerivedArtifactKeepsProvenance \
	TestSessionCachedPlanMatchesFreshPlan \
	TestAdmittedIdentitiesAreCompiled TestCompiledIsSingleUse TestOptimizeRefusesCSEMismatch \
	TestSessionMissCountsRacingCommit
floor ./internal/lint/ TestP6SilentOnFingerprintCollision TestP6WarnsOnTrueRebuild
floor ./internal/serve/ TestServeCrossTenantSharing TestFoldGroups \
	TestServeBackpressure TestServeShutdownDrains TestEventLogPerRequest TestEventLogFailure \
	TestEventLogAdditivity TestEventLogConcurrency \
	TestServePanicRecovered TestServeFailedRunLeavesNoArtifact
floor ./internal/mqo/ TestSelectGreedyMatchesOracle TestSelectionDeterministicAcrossWorkers \
	TestEnactBitIdentical
floor ./internal/obs/eventlog/ TestEventWireFormat TestCompactEventRendersLikeEvent
floor ./internal/bench/ TestPerScriptBaselineMatchesSession

# Eight concurrent clients of one service, whose last requests are
# served from one stored search and execute one shared plan tree at
# once; ten race-detector passes over the differential harness's
# clients=8 cell on the rollup scripts at workers=2 (the other
# clients=8 cells run once, in the pass above).
step "go test -race -count=10 (concurrent clients, plan-store hits)"
go test -race -count=10 -run 'TestDifferential/rollups/clients=8/workers=2' ./internal/exec/ ||
	fail "concurrent clients failed under the race detector"

# The committed cost-of-one-optimize numbers (EXPERIMENTS E20) come
# from these benchmarks; three iterations keep them from rotting.
step "opt benchmark smoke (BenchmarkOptLS1, BenchmarkOptS4)"
go test -run '^$' -bench 'OptLS1|OptS4' -benchtime 3x -benchmem . ||
	fail "optimizer benchmark smoke failed"

# MQO is an offline planner (scopemqo, benchrepro -fig mqo); the
# service must not link it back onto the request path.
step "serve does not depend on mqo"
if go list -deps ./internal/serve | grep -qx 'repro/internal/mqo'; then
	fail "internal/serve depends on internal/mqo"
fi

# The optimizer reads the session's plan store through opt.PlanStore;
# the store lives in share, which stays above opt in the import graph.
step "opt does not depend on share"
if go list -deps ./internal/opt | grep -qx 'repro/internal/share'; then
	fail "internal/opt depends on internal/share"
fi

# The service schedules; how a script compiles is the session's
# business (share.Session.Compile is the one compile of a request).
step "serve does not compile scripts"
if go list -f '{{join .Imports "\n"}}' ./internal/serve |
	grep -qxE 'repro/internal/(logical|core|memo|relop)'; then
	fail "internal/serve imports logical, core, memo or relop"
fi

# One door in: a script is compiled, optimized and executed through
# share's three stages (share.Compile, share.Optimize, share.Execute),
# which decide how a script becomes a memo and what its sharing
# identities are. Outside share and the defining packages nothing binds
# or optimizes directly, except the differential harness's reference
# bind feeding exec.Reference, which stays independent of the pipeline
# it checks.
step "one door in (share's stages)"
if grep -rnE --include='*.go' '(logical\.BuildSource|opt\.Optimize)\(' cmd scope internal |
	grep -vE '^[^:]*_test\.go:|^internal/(share|logical|opt)/' |
	grep -vE '^internal/difftest/difftest\.go:[0-9]+:[[:space:]]*mRef, err := logical\.BuildSource\('; then
	fail "a package outside internal/share binds or optimizes a script; call share.Compile and share.Optimize"
fi

# The differential harness (internal/difftest) drives the row oracle
# and sessions from tests; no program may link it.
step "difftest is imported by tests only"
if go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep -E ' repro/internal/difftest( |$)'; then
	fail "a non-test file imports repro/internal/difftest; only _test.go files may"
fi

# A subexpression has one identity (core.Subexpr) and a spool one key
# (plan.SpoolID); neither is rendered back into a string map key.
step "no string-rendered identity keys"
if grep -rnE --include='*.go' 'fmt\.Sprintf\("(%d\|%s|%016x\|%s)"' internal | grep -v '_test\.go:'; then
	fail "a string-rendered spool or subexpression key is back; use plan.SpoolID or core.Subexpr"
fi

# A plan names its artifacts once: the optimizer lists a chosen plan's
# shareable spools with their identities and costs (opt.Artifact), and
# share.Admit is the one admission rule. Outside the packages that
# define plans and their costs, nothing walks a plan for its spools or
# prices a spool read itself.
step "one artifact record (opt.Result.Artifacts)"
if grep -rnE --include='*.go' 'SpoolReadCost\(|FindAll\([^)]*KindPhysSpool' cmd scope internal benchmark |
	grep -vE '^[^:]*_test\.go:|^internal/(opt|plan|cost)/'; then
	fail "a package outside internal/{opt,plan,cost} walks a plan's spools or prices a spool read; use opt.Result.Artifacts"
fi

# The benchmark is its own module outside the tier-1 line; run its
# smoke test here so a change that breaks what BENCHMARK.json drives
# fails before merge.
step "benchmark smoke (cd benchmark && go test ./...)"
(cd benchmark && go test ./...) || fail "benchmark smoke test failed"

# Optimizer benchmark artifact: one generation pass must emit a
# BENCH_opt.json that its own schema validator accepts and that agrees
# with the committed file on every deterministic field (costs, shared
# groups, rounds, task counts); only the timing and run-width lines may
# differ. A change that moves a committed paper number regenerates the
# file in the same diff.
step "opt bench smoke (benchrepro -fig opt)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
out=$(go run ./cmd/benchrepro -fig opt -iters 1 -out "$tmpdir/BENCH_opt.json") ||
	fail "opt bench smoke run failed"
echo "$out" | tail -1
echo "$out" | grep -q 'schema ok' || fail "opt bench smoke produced no schema-ok line"
untimed='"(ns_per_optimize|iters|workers)":'
grep -vE "$untimed" BENCH_opt.json >"$tmpdir/opt.want"
grep -vE "$untimed" "$tmpdir/BENCH_opt.json" >"$tmpdir/opt.got"
diff "$tmpdir/opt.want" "$tmpdir/opt.got" ||
	fail "BENCH_opt.json's deterministic fields differ from a fresh run; regenerate it with benchrepro -fig opt"

# Trace smoke: a traced EXPLAIN ANALYZE run must emit well-formed,
# non-empty Chrome trace_event JSON (scopetrace validates structure
# and span presence) and annotate plan nodes with actual row counts.
step "trace smoke (scoperun -trace -analyze + scopetrace)"
out=$(go run ./cmd/scoperun -script s1 -machines 5 -workers 4 -analyze -trace "$tmpdir/trace.json") ||
	fail "trace smoke run failed"
echo "$out" | grep -q 'actual=' || fail "analyze output carries no actual row counts"
out=$(go run ./cmd/scopetrace "$tmpdir/trace.json") || fail "trace validation failed"
echo "$out"
echo "$out" | grep -q 'trace ok' || fail "trace file failed validation"

# Session batch mode over the example scripts: later scripts must hit
# the cross-query cache, and every script must match its cache-disabled
# baseline (scoperun exits nonzero on a mismatch).
step "session smoke (scoperun -session examples/session)"
out=$(go run ./cmd/scoperun -session examples/session -machines 8 -workers 4) ||
	fail "session smoke run failed"
echo "$out"
echo "$out" | grep -q 'hits=1' || fail "session smoke run produced no cache hits"

# Workload-level MQO over the same example scripts: the merged-DAG
# selection must enact (mqo's TestEnactBitIdentical holds the enacted
# outputs to cold runs) and its ablation artifact must pass its own
# schema validator.
step "mqo smoke (scopemqo -session examples/session)"
out=$(go run ./cmd/scopemqo -session examples/session -machines 8 -workers 4) ||
	fail "mqo smoke run failed"
echo "$out"
echo "$out" | grep -q 'mqo ok' || fail "mqo smoke produced no ok line"
step "mqo bench smoke (benchrepro -fig mqo)"
out=$(go run ./cmd/benchrepro -fig mqo -mqoout "$tmpdir/BENCH_mqo.json") ||
	fail "mqo bench smoke run failed"
echo "$out" | tail -1
echo "$out" | grep -q 'schema ok' || fail "mqo bench smoke produced no schema-ok line"
cmp BENCH_mqo.json "$tmpdir/BENCH_mqo.json" ||
	fail "BENCH_mqo.json differs from a fresh run; regenerate it with benchrepro -fig mqo"

# Event-log replay: scopestat must recompute the committed 20-event
# fixture's sharing statistics exactly (the offline half of the
# additivity invariant the serve tests pin live).
step "scopestat replay smoke (scopestat -replay)"
out=$(go run ./cmd/scopestat -replay cmd/scopestat/testdata/events.jsonl) ||
	fail "scopestat replay failed"
echo "$out" | head -1
echo "$out" | grep -q '^events=20 errors=0 ' || fail "scopestat replay totals diverge from the fixture"

step
echo "check.sh: all green"
