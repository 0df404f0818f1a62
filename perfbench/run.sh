#!/usr/bin/env bash
# Builds the benchmark and the oassis-server binary from this checkout's
# sources and runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mine-domains --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: binaries, the Go build cache, temporary files, the span files of
# traced runs and the workloads' store directories. The file system is
# synced after the build, so that writing back the rebuilt binaries is done
# before this run measures rather than during its timed window. The build
# runs offline, with Go telemetry off.
#
# serve-http-wal leaves its store directories (about 13 MB a run) under
# .bench_build/work/, and they are removed only once 64 runs have piled up:
# on a file system mounted with online discard, deleting them before every
# run made the next runs' session opens, which create files, a quarter
# slower and three times as variable (perfbench/README.md, "Noise").
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/oassis-server ]; then
	echo "perfbench: run from the repository root; go.mod or cmd/oassis-server is missing" >&2
	exit 1
fi

out="$PWD/.bench_build"
if [ "$(find "$out/work" -mindepth 1 -maxdepth 1 -name 'http-wal-*' 2>/dev/null | wc -l)" -ge 64 ]; then
	rm -rf "$out/work"
fi
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# With telemetry on or local, a go command forks a detached telemetry
# sidecar that outlives this script; turning it off keeps every process
# the run starts a child that ends before the script does.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/oassis-server" ./cmd/oassis-server >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
sync -f "$out"
exec "$out/bin/perfbench" --server "$out/bin/oassis-server" --out "$out" "$@"
