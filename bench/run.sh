#!/usr/bin/env bash
# Builds the bench from source and runs it. Everything the build writes
# stays inside the checkout: the go build cache and the binaries under
# bench/.build/, run directories and traces under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/.build/tmp"
export GOCACHE="$here/.build/gocache" GOTMPDIR="$here/.build/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o .build/bench .)
cd "$here/.."
exec "$here/.build/bench" "$@"
