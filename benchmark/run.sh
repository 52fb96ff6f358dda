#!/usr/bin/env bash
# The repository's benchmark, one command:
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1] [-quick]
#
# Builds kserve, kcached and the runner from source into .bench_build/
# (inside the checkout, like everything else it writes), then execs the
# runner, which drives the real daemons over loopback and tears them
# down. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/bin"
mkdir -p "$bin" "$build/tmp"

# Keep the toolchain's reads and writes inside the checkout and off the
# network: the modules have no dependencies outside the standard library.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOTMPDIR="$build/tmp"

# Rebuild only when a source file is newer than the last build: the
# driver runs this script dozens of times in an unchanging checkout.
stale() {
  [ -x "$bin/kbenchrun" ] && [ -x "$bin/kserve" ] && [ -x "$bin/kcached" ] || return 0
  [ -n "$(find "$root/go.mod" "$root/cmd" "$root/internal" "$here" \
    \( -name '*.go' -o -name go.mod \) -newer "$bin/kbenchrun" -print -quit)" ]
}

build_s=0
if stale; then
  t0=$(date +%s%N)
  (cd "$root" && go build -o "$bin/" ./cmd/kserve ./cmd/kcached) >&2
  (cd "$here" && go build -o "$bin/kbenchrun" .) >&2
  ns=$(($(date +%s%N) - t0))
  build_s=$(printf '%d.%03d' $((ns / 1000000000)) $((ns / 1000000 % 1000)))
fi

# exec, so a signal sent to this script's pid reaches the runner, which
# owns the daemons' teardown.
KBENCH_BUILD_S="$build_s" exec "$bin/kbenchrun" -bin "$bin" -tmp "$build/tmp" -out "$here/out" "$@"
