#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash e2ebench/run.sh --workload broadcast-unique --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build in the checkout root. The build needs the repository's own
# sources next to e2ebench/; without them it fails and the script exits
# non-zero before printing any result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd e2ebench && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" "$@"
