#!/usr/bin/env bash
# Builds kgserve and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
#
# Everything it builds, caches and writes stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry counters in the user's
# config directory; point it into the checkout as well.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# With telemetry on (the default, "local"), the first go command in a fresh
# config directory starts a detached sidecar process that outlives it.
# "go telemetry off" itself starts none, and every later go command reads
# the mode it writes and starts none either.
go telemetry off >&2

# Both builds fail outside a full checkout: the benchmark module replaces
# the repository module with the directory above it.
(cd "$root" && go build -o "$out/bin/kgserve" ./cmd/kgserve) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
