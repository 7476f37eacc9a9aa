#!/usr/bin/env bash
# Builds lixtobench from source into .bench_build/ of the checkout and
# runs it with the given arguments (see README.md). Everything the
# build and the run write stays inside the checkout: the Go build
# cache, module cache and temp dir are redirected there, so the script
# also works where $HOME is unset or read-only.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: $root is not the repository root (no go.mod): the benchmark builds against the repository's packages" >&2
	exit 3
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/lixtobench" .)
exec "$build/lixtobench" "$@"
