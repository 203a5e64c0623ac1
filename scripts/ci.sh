#!/bin/sh
# Offline CI gate for the Muri workspace. Runs the same checks the
# repo treats as merge-blocking, in fail-fast order:
#
#   1. formatting        cargo fmt --all -- --check
#   2. lints             cargo clippy --workspace --all-targets -- -D warnings
#      (the lint set lives in [workspace.lints] in Cargo.toml + clippy.toml)
#   3. muri-lint         the workspace determinism & audit-coverage
#      scanner (rules D001-D005, C001, A001, S001 — see DESIGN.md
#      "Static analysis"); any violation fails the build (exit 3)
#   4. tests             cargo test --workspace -q, then again with the
#      `audit` feature so the muri-verify debug hooks and the audited
#      engine path are exercised
#   5. bench smoke       the criterion bench targets scripts/bench.sh
#      relies on (including the serve daemon bench), run with `--test`
#      (each body executes once, untimed) so a broken bench fails CI
#      instead of the baseline workflow
#   6. telemetry smoke   a 20-job simulation with all three telemetry
#      exporters enabled, then `muri telemetry-check` validates the
#      artifacts: the journal parses and its lifecycle ledger conserves
#      jobs, the Chrome trace is well-formed with monotonic timestamps,
#      and the Prometheus text round-trips the golden parser
#   7. fault smoke       a 20-job simulation under the machine-level
#      fault battery (machine faults + repair, a degraded machine,
#      periodic checkpointing) with the journal exported, then
#      `muri telemetry-check` proves the faulty run's lifecycle ledger
#      still conserves jobs
#   8. hostile smoke     the hostile-cluster scenario suite: a seeded
#      spot-eviction + heterogeneous-GPU simulation with the journal
#      exported and validated by `muri telemetry-check`, then audited
#      `muri verify` replays under Muri-L and AntMan (whose join pass
#      reforms running groups) with all four scenarios (spot, hetero,
#      elastic, SLO) plus machine fail-stop and transient faults, job
#      MTBF, a degraded machine and periodic checkpoints active, so
#      every engine recovery path runs under the audit hooks — zero
#      violations required
#   9. pruning smoke     two checks on trace 2: at --scale 0.02 every
#      bucket fits the small-graph shortcut (n <= top_m + 1), so default
#      sparsification and --prune-top-m 0 must produce byte-identical
#      reports; at --scale 0.1 buckets are large enough that edges are
#      really dropped, so the run only has to complete cleanly — the
#      certificate bounds (but does not zero) the matching-weight
#      difference, and the report may legitimately differ from dense
#  10. sharded smoke     two checks on trace 2 at --scale 0.1: with one
#      giant forced shard and pruning off, the sharded planner builds
#      the full candidate graph and solves it exactly, so its report
#      must be byte-identical to the unsharded dense run; then an
#      audited `muri verify` replay with sharding forced must finish
#      with zero violations (the sharded plan's stated pair weights and
#      composed loss certificate both survive independent recomputation)
#  11. serve smoke       the always-on daemon end to end: boot
#      `muri serve` on an ephemeral port with the README quickstart's
#      policy and closed-mode tenants, drive it over HTTP with
#      `muri serve-load` as a quota-bound tenant (submit, poll to
#      completion, fetch the journal, shut down gracefully), validate
#      the fetched journal with `muri telemetry-check`, and require
#      daemon exit code 0
#  12. serve crash smoke  durability end to end: boot a daemon with
#      `--state DIR`, submit load without waiting, SIGKILL it, restart
#      with `--recover` (the boot-time recovery-replay audit must
#      report clean), drive the recovered daemon to completion,
#      validate the journal, assert the idle daemon burns ~no CPU
#      (no busy-polling), and require a clean graceful exit
#
# `scripts/ci.sh --deep` additionally runs the core/matching test suites
# under Miri and a ThreadSanitizer build when a nightly toolchain with
# those components is installed; without one, each deep step prints a
# skip notice and the gate result is unaffected.
#
# Everything is offline-safe: all dependencies are vendored under
# vendor/, so no network access is needed or attempted.

set -eu

deep=0
for arg in "$@"; do
    case "$arg" in
        --deep) deep=1 ;;
        *) echo "usage: scripts/ci.sh [--deep]" >&2; exit 2 ;;
    esac
done

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> muri lint (workspace determinism & audit-coverage scan)"
cargo run -q -p muri-cli -- lint

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --workspace -q (with scheduler/engine audit hooks)"
cargo test --workspace -q --features muri-sim/audit,muri-core/audit

echo "==> bench smoke (scalability + algorithms + serve, --test mode)"
cargo bench -p muri-bench --bench scalability --bench algorithms --bench serve -- --test

echo "==> telemetry smoke (20-job sim, all three exporters, validated)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
cargo run -q -p muri-cli -- simulate muri-l --trace 1 --scale 0.02 \
    --journal "$tmpdir/journal.jsonl" \
    --metrics "$tmpdir/metrics.prom" \
    --chrome-trace "$tmpdir/trace.json" >/dev/null
cargo run -q -p muri-cli -- telemetry-check \
    --journal "$tmpdir/journal.jsonl" \
    --metrics "$tmpdir/metrics.prom" \
    --chrome-trace "$tmpdir/trace.json"

echo "==> fault smoke (machine faults + checkpointing, journal conserved)"
cargo run -q -p muri-cli -- simulate muri-l --trace 1 --scale 0.02 \
    --machine-mtbf 1800 --machine-mttr 300 --transient-fraction 0.5 \
    --degraded 1 --fault-seed 42 \
    --checkpoint-interval 120 --checkpoint-cost 5 \
    --journal "$tmpdir/fault_journal.jsonl" >/dev/null
cargo run -q -p muri-cli -- telemetry-check --journal "$tmpdir/fault_journal.jsonl"

echo "==> hostile smoke (spot+hetero journal conserved, all-scenario audited verify)"
cargo run -q -p muri-cli -- simulate muri-l --trace 1 --scale 0.02 \
    --spot-machines 1 --spot-mtbe 900 --spot-warning 60 --spot-downtime 300 \
    --gpu-generations 2 --generation-gap 0.5 \
    --checkpoint-cost 5 --fault-seed 7 \
    --journal "$tmpdir/hostile_journal.jsonl" >/dev/null
cargo run -q -p muri-cli -- telemetry-check --journal "$tmpdir/hostile_journal.jsonl"
for policy in muri-l antman; do
    cargo run -q -p muri-cli -- verify "$policy" --trace 1 --scale 0.02 \
        --spot-machines 1 --spot-mtbe 900 --spot-warning 60 --spot-downtime 300 \
        --gpu-generations 2 --generation-gap 0.5 \
        --elastic-fraction 0.25 --elastic-interval 900 \
        --slo-fraction 0.3 --slo-slack 2 \
        --machine-mtbf 3600 --machine-mttr 600 --transient-fraction 0.5 \
        --mtbf 7200 --degraded 1 --checkpoint-interval 600 \
        --checkpoint-cost 5 --fault-seed 7
done

echo "==> pruning smoke (small-bucket identity at 0.02, pruned run at 0.1)"
cargo run -q -p muri-cli -- simulate muri-l --trace 2 --scale 0.02 \
    >"$tmpdir/pruned.out" 2>/dev/null
cargo run -q -p muri-cli -- simulate muri-l --trace 2 --scale 0.02 --prune-top-m 0 \
    >"$tmpdir/dense.out" 2>/dev/null
if ! cmp -s "$tmpdir/pruned.out" "$tmpdir/dense.out"; then
    echo "ci: pruned simulation diverged from the dense baseline on" >&2
    echo "ci: small buckets, where the shortcut makes pruning a no-op:" >&2
    diff "$tmpdir/pruned.out" "$tmpdir/dense.out" >&2 || true
    exit 1
fi
cargo run -q -p muri-cli -- simulate muri-l --trace 2 --scale 0.1 >/dev/null 2>&1

echo "==> sharded smoke (one-shard identity vs dense, audited forced-shard run)"
cargo run -q -p muri-cli -- simulate muri-l --trace 2 --scale 0.1 --prune-top-m 0 \
    --shard-by force --shard-size 100000 --candidate-m 0 \
    >"$tmpdir/sharded.out" 2>/dev/null
cargo run -q -p muri-cli -- simulate muri-l --trace 2 --scale 0.1 --prune-top-m 0 \
    --shard-by off \
    >"$tmpdir/unsharded.out" 2>/dev/null
if ! cmp -s "$tmpdir/sharded.out" "$tmpdir/unsharded.out"; then
    echo "ci: one-shard sharded simulation diverged from the unsharded" >&2
    echo "ci: dense baseline, where the full candidate graph makes the" >&2
    echo "ci: sparse solve exact:" >&2
    diff "$tmpdir/sharded.out" "$tmpdir/unsharded.out" >&2 || true
    exit 1
fi
cargo run -q -p muri-cli -- verify muri-l --trace 2 --scale 0.1 --shard-by force

echo "==> serve smoke (daemon boot, HTTP load, journal conserved, clean exit)"
# Boot the daemon on an ephemeral port with the README quickstart's
# policy and tenants (closed-mode admission), drive it over HTTP with
# serve-load as tenant alice, whose 16-GPU quota admits all 6 x 2 GPUs
# (submit, poll to completion, fetch the journal, request shutdown),
# validate the journal's lifecycle ledger, and require the daemon
# process itself to exit 0.
cargo build -q -p muri-cli
target/debug/muri serve --port 0 --time-scale 36000 --workers 2 \
    --policy muri-l --tenants 'alice=16,bob' \
    --journal "$tmpdir/serve_daemon_journal.jsonl" \
    >"$tmpdir/serve.log" 2>&1 &
serve_pid=$!
serve_addr=""
i=0
while [ $i -lt 100 ]; do
    serve_addr=$(sed -n 's#^muri-serve listening on http://##p' "$tmpdir/serve.log")
    [ -n "$serve_addr" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "ci: serve daemon died before binding:" >&2
        cat "$tmpdir/serve.log" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$serve_addr" ]; then
    echo "ci: serve daemon never reported its address" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
cargo run -q -p muri-cli -- serve-load --addr "$serve_addr" \
    --jobs 6 --gpus 2 --iters 20 --tenant alice \
    --journal "$tmpdir/serve_journal.jsonl" --shutdown >"$tmpdir/serve_load.out"
if ! grep -q '"accepted":6,"refused":0' "$tmpdir/serve_load.out"; then
    echo "ci: closed-mode daemon did not admit all 6 of alice's jobs:" >&2
    cat "$tmpdir/serve_load.out" >&2
    exit 1
fi
cargo run -q -p muri-cli -- telemetry-check --journal "$tmpdir/serve_journal.jsonl"
if ! wait "$serve_pid"; then
    echo "ci: serve daemon exited non-zero:" >&2
    cat "$tmpdir/serve.log" >&2
    exit 1
fi

echo "==> serve crash smoke (SIGKILL mid-load, --recover replay, journal conserved)"
# Boot a durable daemon, submit load without waiting, SIGKILL it
# mid-flight, restart from the same state directory with --recover
# (which runs the recovery-replay audit before serving), drive the
# recovered daemon to completion, and validate the fetched journal.
# Finally assert the idle daemon burns ~no CPU (the event loop must
# sleep on its next deadline, not busy-poll).
wait_serve_addr() {
    # $1 = logfile, $2 = pid; prints the bound address or returns 1.
    _i=0
    while [ $_i -lt 100 ]; do
        _addr=$(sed -n 's#^muri-serve listening on http://##p' "$1")
        if [ -n "$_addr" ]; then
            printf '%s\n' "$_addr"
            return 0
        fi
        kill -0 "$2" 2>/dev/null || return 1
        sleep 0.1
        _i=$((_i + 1))
    done
    return 1
}
statedir="$tmpdir/serve_state"
target/debug/muri serve --port 0 --time-scale 36000 --workers 2 \
    --state "$statedir" \
    >"$tmpdir/crash1.log" 2>&1 &
crash_pid=$!
if ! crash_addr=$(wait_serve_addr "$tmpdir/crash1.log" "$crash_pid"); then
    echo "ci: durable serve daemon never reported its address:" >&2
    cat "$tmpdir/crash1.log" >&2
    exit 1
fi
cargo run -q -p muri-cli -- serve-load --addr "$crash_addr" \
    --jobs 6 --gpus 2 --iters 2000 --no-wait
kill -9 "$crash_pid"
wait "$crash_pid" 2>/dev/null || true

target/debug/muri serve --port 0 --time-scale 36000 --workers 2 \
    --state "$statedir" --recover \
    >"$tmpdir/crash2.log" 2>&1 &
recover_pid=$!
if ! recover_addr=$(wait_serve_addr "$tmpdir/crash2.log" "$recover_pid"); then
    echo "ci: recovered serve daemon never came back up:" >&2
    cat "$tmpdir/crash2.log" >&2
    exit 1
fi
if ! grep -q "recovery audit OK" "$tmpdir/crash2.log"; then
    echo "ci: recovered daemon did not report a clean recovery audit:" >&2
    cat "$tmpdir/crash2.log" >&2
    kill "$recover_pid" 2>/dev/null || true
    exit 1
fi
cargo run -q -p muri-cli -- serve-load --addr "$recover_addr" \
    --jobs 4 --gpus 1 --iters 20 \
    --journal "$tmpdir/crash_journal.jsonl"
cargo run -q -p muri-cli -- telemetry-check --journal "$tmpdir/crash_journal.jsonl"
if [ -r "/proc/$recover_pid/stat" ]; then
    cpu_before=$(awk '{print $14 + $15}' "/proc/$recover_pid/stat")
    sleep 2
    cpu_after=$(awk '{print $14 + $15}' "/proc/$recover_pid/stat")
    # An idle daemon that busy-polled at 2 ms would burn most of a core;
    # sleeping on the next event deadline keeps it near zero. Allow a
    # handful of scheduler ticks (USER_HZ is typically 100/sec) of slack.
    if [ $((cpu_after - cpu_before)) -gt 20 ]; then
        echo "ci: idle recovered daemon burned $((cpu_after - cpu_before)) CPU ticks over 2s — event loop is busy-polling" >&2
        kill "$recover_pid" 2>/dev/null || true
        exit 1
    fi
fi
cargo run -q -p muri-cli -- serve-load --addr "$recover_addr" \
    --jobs 0 --shutdown >/dev/null
if ! wait "$recover_pid"; then
    echo "ci: recovered serve daemon exited non-zero:" >&2
    cat "$tmpdir/crash2.log" >&2
    exit 1
fi

if [ "$deep" = 1 ]; then
    # Best-effort deep checks: both need a nightly toolchain, which the
    # offline image may not carry. Detection failures skip with a notice
    # rather than failing the gate; actual test failures still fail it.
    echo "==> deep: cargo miri test (muri-core, muri-matching)"
    if rustup run nightly cargo miri --version >/dev/null 2>&1; then
        rustup run nightly cargo miri test -p muri-core -p muri-matching -q
    else
        echo "ci: skipping Miri — no nightly toolchain with the miri component installed"
    fi

    echo "==> deep: ThreadSanitizer build (muri-core, muri-matching)"
    # -Zsanitizer=thread needs the std sources (-Zbuild-std), so both a
    # nightly toolchain and its rust-src component must be present.
    if rustup run nightly rustc --version >/dev/null 2>&1 &&
        rustup component list --toolchain nightly 2>/dev/null |
        grep -q "rust-src (installed)"; then
        RUSTFLAGS="-Zsanitizer=thread" \
            rustup run nightly cargo test -p muri-core -p muri-matching -q \
            -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')"
    else
        echo "ci: skipping ThreadSanitizer — no nightly toolchain with rust-src installed"
    fi
fi

echo "ci: all checks passed"
