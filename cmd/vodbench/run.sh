#!/usr/bin/env bash
# Builds cmd/vodbench from the source in this checkout and runs it with
# the given arguments. Run it from the repository root, for example:
#
#   bash cmd/vodbench/run.sh --workload p4-large --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every other file the toolchain
# writes stay under .bench_build/ in the checkout, so a run reads and
# writes nothing outside it. Without the repository's own source next to
# this directory the build fails and the script exits non-zero before
# printing any result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off
go build -C cmd/vodbench -o "$out/vodbench" .
exec "$out/vodbench" "$@"
