#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload put1k-sat --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Every file the build and the run
# leave behind (Go build cache, binary, span dumps, WAL directories)
# stays under .bench_build/ in the checkout. The last line of standard
# output is the JSON result; the exit code is non-zero when the build
# fails or an output check fails.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the checkout root (perfbench/go.mod not found)" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
	echo "perfbench: the program's sources (go.mod at the checkout root) are missing" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off
export GOTMPDIR="$build/tmp"

bin="$build/perfbench"
# Rebuild when the binary is missing or any Go source or module file is
# newer than it.
if [[ ! -x "$bin" ]] || [[ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name 'go.mod' \) -newer "$bin" -print -quit)" ]]; then
	(cd "$root/perfbench" && go build -o "$bin.tmp" .) >&2
	mv "$bin.tmp" "$bin"
fi
exec "$bin" -out "$build" "$@"
