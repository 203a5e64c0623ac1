#!/usr/bin/env bash
# Build the benchmark from source and run it. See benchmark/README.md.
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1] [--append FILE]
#       one run; the last stdout line is the result JSON
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--append FILE]
#       every workload, each in a fresh process
#   benchmark/run.sh --smoke [--trace]
#       every workload at tiny sizes, through the same code
#   benchmark/run.sh compare A B [--history FILE]
#       compare two commits' end-to-end runs in the history
#
# Builds into $CARGO_TARGET_DIR (default benchmark/target); run state and
# span files go to its bench-out/ directory.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/muri-benchmark"
out="$target/bench-out"

if [[ "${1:-}" == compare ]]; then
    exec "$bin" "$@"
fi
for arg in "$@"; do
    if [[ "$arg" == --workload ]]; then
        exec "$bin" --out-dir "$out" "$@"
    fi
done

# Every workload: a bare --trace means --trace 1.
args=()
while (($#)); do
    if [[ "$1" == --trace && "${2:-}" != 0 && "${2:-}" != 1 ]]; then
        args+=(--trace 1)
    else
        args+=("$1")
    fi
    shift
done
status=0
for workload in philly-t4 burst-512 hostile-t2 serve-open; do
    "$bin" --out-dir "$out" --workload "$workload" "${args[@]}" || status=1
done
exit "$status"
