#!/usr/bin/env bash
# Builds the qccdd daemon and the benchmark harness from source, then runs
# the harness with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload all --seed 1 --seconds 25 --trace 0
#
# Every build output, Go cache and run artefact stays under .bench_build/
# in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

# Without the program there is nothing to build or measure; fail before any
# go command runs.
if [ ! -f go.mod ] || [ ! -d cmd/qccdd ]; then
	echo "run.sh: go.mod or cmd/qccdd not found under $root" >&2
	exit 2
fi

# A go command forks a detached telemetry child that can outlive this
# script; turning telemetry off (itself a command that forks no child)
# keeps every later go command from starting one.
go telemetry off 1>&2

go build -o "$out/bin/qccdd" ./cmd/qccdd 1>&2
go -C perfbench build -o "$out/bin/perfbench" . 1>&2
exec "$out/bin/perfbench" -root "$root" -qccdd "$out/bin/qccdd" "$@"
