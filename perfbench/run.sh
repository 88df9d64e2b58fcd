#!/usr/bin/env bash
# Builds ssyncd and the perfbench program from the source tree this script
# sits in, then runs perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product and Go cache lives
# under .bench_build/ at the root, so the run reads and writes nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ssyncd" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/ssyncd here)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$root/.bench_build/go-cache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; keep those inside the checkout too.
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$out/ssyncd" ./cmd/ssyncd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -ssyncd "$out/ssyncd" -out "$out" "$@"
