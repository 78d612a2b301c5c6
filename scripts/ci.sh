#!/bin/sh
# Local CI: the same gate .github/workflows/ci.yml runs. Fails on
# unformatted files, vet findings, build or test failures, data races
# in the concurrent packages (GCLP propose workers, parallel NCuts /
# recursive bisection, k-way refinement), and failures in the perfbench
# module, which the root module's ./... does not include.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== go test -race (concurrent packages, parity + fuzz seeds)"
go test -race ./internal/coarsen/ ./internal/multilevel/ ./internal/kway/ \
    ./internal/refine/ ./internal/trace/ ./internal/graph/ ./internal/service/ \
    ./internal/jobs/ ./internal/sessions/

echo "== perfbench (the benchmark's own module: vet + tests, incl. BENCHMARK.json == catalogue)"
go -C perfbench vet ./...
go -C perfbench test ./...

echo "== chaos (fault-injection suite under -race, multiple seeds)"
for seed in 1 7 42; do
    echo "-- CHAOS_SEED=$seed"
    CHAOS_SEED=$seed go test -race -run 'Chaos' -count=1 \
        ./internal/service/ ./internal/multilevel/ ./internal/sessions/
done

echo "== service smoke (live daemon vs CLI, async batch jobs, healthz, readyz drain, cache, SIGTERM, session kill-and-recover)"
go run ./scripts/servicesmoke

echo "== perf report (refine + ingest + cycle + coarsening benchmarks vs committed baseline, non-fatal)"
perf_now="$(mktemp)"
if go test -json -run '^$' -bench 'BenchmarkRefineKWay|BenchmarkRefinePolicies' \
    -benchmem -benchtime 3x ./internal/refine/ >"$perf_now" 2>/dev/null &&
    go test -json -run '^$' -bench 'BenchmarkIngest$' \
        -benchmem -benchtime 3x . >>"$perf_now" 2>/dev/null &&
    go test -json -run '^$' -bench 'BenchmarkCycles' \
        -benchmem -benchtime 1x . >>"$perf_now" 2>/dev/null &&
    go test -json -run '^$' -bench 'BenchmarkCoarseningFamilies' \
        -benchmem -benchtime 1x . >>"$perf_now" 2>/dev/null; then
    # Report-only: machine variance makes ns/op deltas advisory in CI. To
    # gate locally, add -fail-over 25 to the benchcmp invocation.
    go run ./scripts/benchcmp scripts/perf_baseline.json "$perf_now" || true
else
    echo "perf report skipped: benchmark run failed" >&2
fi
rm -f "$perf_now"

echo "== fuzz smoke (graph readers + binary decoder + JSON graph decoder + session delta log + k-way refinement)"
go test -fuzz '^FuzzRead$' -fuzztime 10s -run '^$' ./internal/graph/
go test -fuzz '^FuzzReadMatrixMarket$' -fuzztime 10s -run '^$' ./internal/graph/
go test -fuzz '^FuzzDecodeBinary$' -fuzztime 10s -run '^$' ./internal/graph/
go test -fuzz '^FuzzWireGraphJSON$' -fuzztime 10s -run '^$' .
go test -fuzz '^FuzzDeltaLog$' -fuzztime 10s -run '^$' ./internal/sessions/
go test -fuzz '^FuzzRefineKWay$' -fuzztime 10s -run '^$' ./internal/refine/

echo "CI OK"
