#!/bin/sh
# verify.sh — the repo's full verification gate: formatting, static
# analysis, build, race-enabled tests and bounded fuzzing. Run before
# every push.
set -eu
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "verify: gofmt -l lists:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== stacklint =="
# The repo's own analyzer suite: context-first entry points, no
# deprecated references, deterministic simulation packages, annotated
# hot paths allocation-free, obs instruments touched only via methods,
# plus the CFG/dataflow concurrency checks (locksafe, goleak,
# atomicmix, wirestable). First assert the full suite is registered —
# a silently dropped analyzer passes every other gate.
lintlist=$(go run ./cmd/stacklint -list)
for a in atomicmix ctxfirst deprecatedcall determinism goleak \
         hotpathalloc locksafe obsaccess wirestable; do
    echo "$lintlist" | grep -q "^$a " || {
        echo "verify: analyzer $a missing from stacklint -list" >&2
        exit 1
    }
done
go run ./cmd/stacklint ./...

echo "== go build =="
go build ./...

echo "== repobench build =="
# The benchmark is a nested module compiled against this one's
# internal/core API: a signature change that breaks it fails here, not
# in the benchmark run.
(cd repobench && go build ./... && go vet ./...)

echo "== go test -race =="
go test -race ./...

echo "== fuzz =="
# A bounded run of each decoder fuzz target. Their committed seed
# corpora (testdata/fuzz) already ran as plain tests above; this stage
# searches beyond them. A crasher lands in testdata/fuzz and fails here.
for target in FuzzDecodeWireSpec FuzzDecodeRequest; do
    go test -run '^$' -fuzz "^$target\$" -fuzztime 10s ./internal/core/
done

echo "== benchmark smoke =="
# One iteration of every internal benchmark: catches benchmarks that
# no longer compile or crash without paying for stable timings. The
# root-package figure benchmarks replay paper-scale workloads and are
# exercised by tests already, so the smoke stays inside internal/.
go test -run '^$' -bench . -benchtime 1x ./internal/... >/dev/null

echo "== multigrid solver smoke =="
# One short multigrid solve through the CLI: the -solver flag must
# reach the thermal substrate, and the metrics snapshot must carry the
# thermal_mg_* family (V-cycle and per-level sweep counters) alongside
# the regular thermal family.
mgtmp=$(mktemp -d)
trap 'rm -rf "$mgtmp"' EXIT
go run ./cmd/thermal3d -baseline -grid 32 -solver multigrid \
    -metrics-out "$mgtmp/mg-metrics.jsonl" >/dev/null
grep -q thermal_mg_cycles "$mgtmp/mg-metrics.jsonl"
go run ./internal/obs/cmd/checksnap -families thermal,thermal_mg "$mgtmp/mg-metrics.jsonl"
# Without -solver, steady solves run multigrid by default.
go run ./cmd/thermal3d -baseline -grid 32 \
    -metrics-out "$mgtmp/default-metrics.jsonl" >/dev/null
grep -q thermal_mg_cycles "$mgtmp/default-metrics.jsonl"
# -solver sor still selects line-SOR and completes, with no V-cycles.
go run ./cmd/thermal3d -baseline -grid 32 -solver sor \
    -metrics-out "$mgtmp/sor-metrics.jsonl" >/dev/null
if grep -q thermal_mg_cycles "$mgtmp/sor-metrics.jsonl"; then
    echo "verify: -solver sor ran multigrid V-cycles" >&2
    exit 1
fi
rm -rf "$mgtmp"

echo "== supervised campaign smoke =="
# A small supervised sweep: every job must finish OK, the manifest must
# be written, and the -metrics-out JSONL must carry all five metric
# families — harness end to end from the CLI, observability included.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/stackmem -campaign -bench gauss -scale 0.05 -grid 16 \
    -jobs 4 -retries 1 -manifest "$tmpdir/manifest.json" \
    -metrics-out "$tmpdir/metrics.jsonl"
grep -q '"status": "ok"' "$tmpdir/manifest.json"
test -s "$tmpdir/metrics.jsonl"
go run ./internal/obs/cmd/checksnap "$tmpdir/metrics.jsonl"

echo "== distributed campaign smoke =="
# One coordinator, two loopback workers, one SIGKILLed mid-campaign,
# and deterministic chaos (drops, torn writes, latency) on the
# surviving worker's link: the dead worker's leases must expire and
# re-issue, the survivor must reconnect through its injected faults,
# and the merged manifest must come out byte-identical to the
# single-process manifest the supervised smoke above wrote for the
# same spec.
go build -o "$tmpdir/stackmem" ./cmd/stackmem
port=$((20000 + $$ % 20000))
"$tmpdir/stackmem" -campaign -bench gauss -scale 0.05 -grid 16 \
    -serve "127.0.0.1:$port" -lease-ttl 2s \
    -manifest "$tmpdir/merged.json" \
    -metrics-out "$tmpdir/dist-metrics.jsonl" 2>"$tmpdir/coord.log" &
coord=$!
"$tmpdir/stackmem" -campaign -worker "127.0.0.1:$port" -worker-name smoke-w1 \
    -jobs 2 -retries 1 \
    -chaos-seed 7 -chaos-drop 4 -chaos-partial 3 -chaos-latency 1ms \
    -metrics-out "$tmpdir/w1-metrics.jsonl" 2>"$tmpdir/w1.log" &
w1=$!
"$tmpdir/stackmem" -campaign -worker "127.0.0.1:$port" -worker-name smoke-w2 \
    -retries 1 2>"$tmpdir/w2.log" &
w2=$!
sleep 1
kill -9 "$w2" 2>/dev/null || true
wait "$coord"
wait "$w1"
cmp "$tmpdir/manifest.json" "$tmpdir/merged.json"
grep -q dist_lease_grants "$tmpdir/dist-metrics.jsonl"
# The coordinator carries the dist_* counters (grants, drains,
# violations); the chaos-injected worker additionally carries the
# chaos_* and reconnect counters.
go run ./internal/obs/cmd/checksnap -families dist "$tmpdir/dist-metrics.jsonl"
go run ./internal/obs/cmd/checksnap -families dist,chaos "$tmpdir/w1-metrics.jsonl"

echo "== chaos soak =="
# The ISSUE 7 acceptance run: three in-process workers under sustained
# injected network faults, one coordinator drained mid-campaign and
# restarted on the same journal; the merged manifest must be
# byte-identical to the single-process run. Tagged so the regular test
# sweep above stays fault-free; hard -timeout bounds a hung soak.
go test -race -count=1 -tags soak -run TestChaosSoak -timeout 240s ./internal/dist/

echo "== stackd service smoke =="
# The experiment service end to end: POST the same spec twice (the
# second must be served from the result cache) and a concurrent
# identical cold pair (singleflight must merge the twin into the
# leader's solve), then drain with SIGTERM. The final metrics snapshot
# must carry the stackd_* family with the hit and merge counters
# proving both paths fired.
go build -o "$tmpdir/stackd" ./cmd/stackd
sport=$((21000 + $$ % 20000))
"$tmpdir/stackd" -addr "127.0.0.1:$sport" \
    -metrics-out "$tmpdir/stackd-metrics.jsonl" 2>"$tmpdir/stackd.log" &
stackd=$!
trap 'kill "$stackd" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
for _ in $(seq 1 50); do
    curl -sf "http://127.0.0.1:$sport/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
curl -sf -X POST "http://127.0.0.1:$sport/v1/experiments/memory-thermal" \
    -d '{"spec":{"grid":16},"params":{"capacity_mb":32}}' >"$tmpdir/stackd-a.json"
curl -sf -X POST "http://127.0.0.1:$sport/v1/experiments/memory-thermal" \
    -d '{"spec":{"grid":16},"params":{"capacity_mb":32}}' >"$tmpdir/stackd-b.json"
cmp "$tmpdir/stackd-a.json" "$tmpdir/stackd-b.json"
curl -sf -X POST "http://127.0.0.1:$sport/v1/experiments/fig6" \
    -d '{"spec":{"grid":48}}' >"$tmpdir/stackd-c.json" &
pair1=$!
curl -sf -X POST "http://127.0.0.1:$sport/v1/experiments/fig6" \
    -d '{"spec":{"grid":48}}' >"$tmpdir/stackd-d.json" &
pair2=$!
wait "$pair1"
wait "$pair2"
cmp "$tmpdir/stackd-c.json" "$tmpdir/stackd-d.json"
kill -TERM "$stackd"
wait "$stackd"
go run ./internal/obs/cmd/checksnap -families stackd \
    -min stackd_cache_hits=1 -min stackd_inflight_merged=1 \
    "$tmpdir/stackd-metrics.jsonl"

echo "== checkpoint/resume smoke =="
go run ./cmd/stackmem -checkpoint "$tmpdir/run.ckpt" -checkpoint-every 20000 \
    -bench gauss -scale 0.1 -capacity 32 >"$tmpdir/full.out"
go run ./cmd/stackmem -checkpoint "$tmpdir/run.ckpt" -resume \
    -bench gauss -scale 0.1 -capacity 32 >"$tmpdir/resumed.out" 2>/dev/null
cmp "$tmpdir/full.out" "$tmpdir/resumed.out"

echo "verify: OK"
