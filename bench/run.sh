#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root. Build products, the Go
# build cache and every scratch file stay under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/prose" ] || [ ! -d "$root/bench" ]; then
	echo "run.sh: run from the repository root (go.mod, cmd/prose and bench/ must be here)" >&2
	exit 2
fi

out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath GOENV=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
