#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout's sources and runs it
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, journals) stays under
# .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# Build to a private name and rename, so a run that starts while another
# builds never executes a half-written binary.
(cd perfbench && go build -o "$out/perfbench.$$" .) >&2
mv -f "$out/perfbench.$$" "$out/perfbench"
exec "$out/perfbench" "$@"
