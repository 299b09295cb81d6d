#!/usr/bin/env bash
# Builds the `csc` daemon and the benchmark from source, then runs one
# benchmark. Run from the repository root:
#
#   bash cscbench/run.sh --workload table-seq --seed 1 --seconds 30 --trace 0
#
# Build artifacts go to $CARGO_TARGET_DIR (default .bench_build); delta
# files and traces go to cscbench/work.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/cli" ]]; then
    echo "cscbench: the repository's crates are not beside $here" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
[[ "$target" = /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p csc-cli --bin csc >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/cscbench" --csc "$target/release/csc" --work "$here/work" "$@"
