#!/usr/bin/env bash
# Builds the paper-workload benchmark from the sources of the checkout it
# sits in, then runs it with the given arguments:
#
#   bash paperbench/run.sh --workload routing_fig8_live --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, binary, toolchain config) stays in
# .bench_build/ at the checkout root. Without the repository sources next
# to it (go.mod, internal/) the script fails before printing any result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
  echo "paperbench: no repository sources (go.mod, internal/) in $root" >&2
  exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/paperbench" && go build -o "$build/paperbench" .)
exec "$build/paperbench" "$@"
