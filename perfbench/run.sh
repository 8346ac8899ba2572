#!/usr/bin/env bash
# Builds cypher-serve and the benchmark program from this checkout, then runs
# the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload read-oltp --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binaries, server data directories) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/cypher-serve" ]; then
	echo "run.sh: run from the repository root (no go.mod or cmd/cypher-serve here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/bin/cypher-serve" ./cmd/cypher-serve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -serve "$out/bin/cypher-serve" -workdir "$out/run" "$@"
