#!/usr/bin/env bash
# The entry point BENCHMARK.json names: build the release binary of this
# workspace member, then run it with the arguments given.
#
# The build is the ordinary one, against the crates the workspace names,
# wherever cargo can resolve them (registry reachable or cached). Only
# where it cannot -- the benchmark driver's checkout has no network, no
# registry cache and none of the repo's untracked files -- the same
# command is repeated offline with offline/cargo-config.toml, which
# patches in the stand-ins kept under offline/. No manifest names them.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
cd "$here/../.."

build() {
    cargo build --release --quiet -p swing-benchmark "$@"
}

deps=registry
if ! why=$(build --config net.retry=0 2>&1); then
    deps=stand-ins
    if ! build --offline --config "$here/offline/cargo-config.toml"; then
        printf 'ordinary build failed first:\n%s\n' "$why" >&2
        exit 1
    fi
fi

# The binary says in its notes which dependency set it was built against.
SWING_BENCHMARK_DEPS=$deps exec "${CARGO_TARGET_DIR:-target}/release/swing-benchmark" "$@"
