#!/usr/bin/env bash
# Builds the program (cmd/serve) and the benchmark from source, then runs
# one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload annotate-cold --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay inside the checkout, under
# .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/serve" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/serve here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# Everything the go command writes (build cache, module cache, temporary
# files, telemetry counters under the user config directory) stays here.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/bin/serve" ./cmd/serve >&2
(cd perfbench && GOFLAGS=-mod=mod go build -o "$out/bin/perfbench" .) >&2
# Pin the benchmark and its children to one CPU: on a small VM a second
# vCPU that halts between bursts wakes late, which spread run-to-run
# timings of identical code by 20-55%; pinned, by 4-20% (see README.md).
# The CPU is the last one this process may run on.
cpu=$(awk '/^Cpus_allowed_list/ {print $2}' /proc/self/status | tr ',' '\n' | tail -n 1 | sed 's/.*-//')
pin=()
if command -v taskset >/dev/null && taskset -c "$cpu" true 2>/dev/null; then
	pin=(taskset -c "$cpu")
else
	echo "perfbench: cannot pin to CPU ${cpu:-?}, running unpinned" >&2
fi
exec "${pin[@]}" "$out/bin/perfbench" --serve "$out/bin/serve" "$@"
