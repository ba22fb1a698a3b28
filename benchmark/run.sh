#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every flag is passed on.
# All build outputs, caches and temporary files stay in .bench_build/ at
# the repository root, so a run reads and writes only inside its
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -C benchmark -o "$out/benchmark" .
exec "$out/benchmark" "$@"
