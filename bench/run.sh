#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): builds the benchmark from
# source inside the checkout, then runs it with the driver's arguments
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything it writes stays in the checkout: the Go build cache and the
# binary under .bench_build/, journals and disk-store probes under
# .bench_build/tmp/, the last result and trace files under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/stdchk-bench" .)
exec "$build/stdchk-bench" -tmp "$build/tmp/run-$$" -out "$here/out/driver.json" "$@"
