#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload lb-tao --seed 1 --seconds 25 --trace 0
#
# Everything the go command writes (build cache, temporary files, its
# configuration and telemetry directories) and the binary stay in
# .bench_build/ under the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
