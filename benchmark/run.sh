#!/bin/bash
# BENCHMARK.json's command: build the benchmark from source and run it with
# the driver's arguments, from the root of a checkout. The Go build cache,
# the build's temporary files, the go command's configuration directory and
# the binary all stay under .bench_build, so a run reads and writes nothing
# outside its checkout; the first run of a checkout therefore compiles the
# standard library too.
set -eu
if [ ! -f go.mod ] || [ ! -f benchmark/go.mod ]; then
	echo "benchmark/run.sh: run from the root of a checkout that holds the program (go.mod) and benchmark/" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
# With telemetry in its default mode the go command starts a detached
# sidecar process that outlives the build; a run must leave no process behind.
echo off > "$build/config/go/telemetry/mode"
go build -C benchmark -o "$build/vampos-perf" .
exec "$build/vampos-perf" "$@"
