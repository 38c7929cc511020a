#!/usr/bin/env bash
# Builds the DECAF benchmark from the enclosing checkout and runs it with
# the given arguments (see README.md). Build cache, temp files, WAL
# directories and span dumps all stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/_decafbench" && go build -o "$out/decafbench" .)
cd "$root"
exec "$out/decafbench" -out "$out" "$@"
