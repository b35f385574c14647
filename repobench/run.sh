#!/usr/bin/env bash
# Builds cmd/stackd and the repobench load generator from source into
# .bench_build/ at the repository root (Go caches included, so nothing
# is written outside the checkout), then runs one benchmark workload:
#
#   bash repobench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
# Without the program's sources there is nothing to build or measure:
# fail before starting any process.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/stackd" ]]; then
	echo "repobench: no diestack sources (go.mod, cmd/stackd) in $root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local GOFLAGS=
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
# In its default "local" telemetry mode the go command forks a detached
# sidecar process that can outlive the build; the mode file turns it off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"
cd "$root"
go build -o "$build/stackd" ./cmd/stackd >&2
(cd "$here" && go build -o "$build/repobench" .) >&2
exec "$build/repobench" -stackd "$build/stackd" -pins "$here/pinned.json" "$@"
