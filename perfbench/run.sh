#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the
# repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload bookworm-read --seed 1 --seconds 50 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache and temporary files, the
# binary (bin/), the durable data directories (removed when the run
# ends), and each run's report and spans (perfbench/).
set -euo pipefail

root=$PWD
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
