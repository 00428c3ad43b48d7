#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload infocom-g2g-epidemic --seed 1 --seconds 25 --trace 0
#
# Every file the build and the run write (Go build cache, temp traces,
# checkpoints, span dumps) stays under the build directory, which is
# $CARGO_TARGET_DIR when set and .bench_build otherwise.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config" "$out/spans"

# The go command keeps its cache, its temp files and its telemetry under the
# user's home by default; point all of them into the build directory, and
# never let it fetch a toolchain or a module.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
