#!/usr/bin/env bash
# Builds sstore-server and the perfbench load generator from the
# checkout in the current directory, then runs one workload:
#
#   bash perfbench/run.sh --workload pipeline-none --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binaries, command logs,
# span dumps) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/sstore-server" ] || [ ! -f "$root/BENCHMARK.json" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/sstore-server and BENCHMARK.json are missing)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/sstore-server" ./cmd/sstore-server >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -server "$out/bin/sstore-server" -work "$out/work" -spec "$root/BENCHMARK.json" "$@"
