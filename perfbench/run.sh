#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#	bash perfbench/run.sh --workload replay-model --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, telemetry) stays in
# .bench_build at the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/home"
(
	cd "$here"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOCACHE="$out/gocache" \
		GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		go build -o "$out/perfbench" .
)
cd "$root"
exec "$out/perfbench" "$@"
