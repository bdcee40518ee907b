#!/usr/bin/env sh
# Quality gate: formatting + lints + docs + the full test suite.
#
# Usage: scripts/check.sh [--no-test]
#   --no-test   run only the fast static checks (fmt + clippy + rustdoc)
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# A doc link to a renamed, removed or private item is an error.
echo "==> cargo doc --workspace --no-deps (-D warnings)"
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps

if [ "${1:-}" != "--no-test" ]; then
    echo "==> cargo test -q"
    cargo test -q

    # The repository benchmark is its own package outside the workspace,
    # so nothing above builds it; an API change that breaks it must fail
    # here.
    echo "==> perfbench build + test"
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

    # The benchmark checks its own output: the golden sweep, the
    # saturation cross-check, sweep determinism, serve payloads against
    # the offline monitor, every saturation witness of the big
    # histories, and the monitor's restart-mode rechecks against batch
    # checks. It reports a failed check in its last line, not its exit
    # code, so run each workload briefly and read that line.
    for workload in check_universe serve_sessions check_bighist monitor_long; do
        echo "==> perfbench --workload $workload (output checks)"
        last=$(perfbench/target/release/smc-perfbench --workload "$workload" \
            --seed 1 --seconds 1 --trace 0 | tail -n 1)
        if ! echo "$last" | grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0,'; then
            echo "perfbench $workload failed its output checks: $last" >&2
            exit 1
        fi
    done

    # Every gate below writes its temporary files into one scratch
    # directory, removed on exit.
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT

    # Print the ns_per_iter of bench row $1 in results file $2, or
    # nothing if the file has no such row (`at_most` then fails).
    row_ns() {
        grep -o "\"$1\", \"ns_per_iter\": [0-9]*" "$2" | grep -o '[0-9]*$' || true
    }

    # Every bench bound: fail bound $1 unless $2 <= $4/$5 x $3, printing
    # hint $6; an empty $2 or $3 (a row missing from its file) fails too.
    at_most() {
        if [ -z "$2" ] || [ -z "$3" ]; then
            echo "bench gate: $1: missing value (got '$2' and '$3')" >&2
            exit 1
        fi
        if [ $(($2 * $5)) -gt $(($3 * $4)) ]; then
            echo "bench gate: $1: $2 > $4/$5 x $3" >&2
            echo "$6" >&2
            exit 1
        fi
        echo "    $1: $2 <= $4/$5 x $3"
    }

    # Start `smc serve` on an ephemeral loopback port, logging to $1, and
    # set serve_pid and serve_addr once it reports its address; if it
    # never does, fail the gate named $2. Arguments after $2 go to
    # `smc serve`. The log exists before the server starts, so polling
    # it never races the server's own redirect.
    start_server() {
        log=$1
        gate=$2
        shift 2
        : >"$log"
        ./target/release/smc serve --listen 127.0.0.1:0 "$@" >"$log" &
        serve_pid=$!
        serve_addr=""
        for _ in $(seq 1 100); do
            serve_addr=$(sed -n 's/^listening on //p' "$log")
            [ -n "$serve_addr" ] && break
            sleep 0.1
        done
        if [ -z "$serve_addr" ]; then
            echo "$gate: server never reported its address" >&2
            kill "$serve_pid" 2>/dev/null || true
            exit 1
        fi
    }

    # Verdict drift gate: the exhaustive small-history sweep, fanned
    # across 4 workers, must classify every history exactly as the
    # checked-in golden file records (perfbench check_universe's output
    # check above diffs the one-job sweep against the same file). A diff
    # means a checker change altered admitted sets — intended changes
    # must regenerate tests/golden/exhaustive_verdicts.txt. The sweep
    # never enters `check_parallel`; the verdict gate for a check's
    # fanned-out layers is `schedulers_agree_across_job_counts` in
    # tests/batch_equiv.rs.
    echo "==> smc corpus --exhaustive --jobs 4 (golden verdicts)"
    sweep_json="$tmp/sweep.json"
    cargo run -q --release --bin smc -- corpus --exhaustive --jobs 4 --json "$sweep_json" >/dev/null
    if ! grep '"verdicts"' "$sweep_json" | diff -u tests/golden/exhaustive_verdicts.txt -; then
        echo "verdict drift against tests/golden/exhaustive_verdicts.txt" >&2
        exit 1
    fi

    # Separation drift gate: the witness search over the small universes
    # must decide every model-pair direction exactly as recorded. A diff
    # means a checker or search change moved a lattice edge — intended
    # changes must regenerate tests/golden/separations_small.txt.
    echo "==> smc separate --all --max-universe small (golden directions)"
    sep_json="$tmp/sep.json"
    cargo run -q --release --bin smc -- separate --all --max-universe small --jobs 4 \
        --json "$sep_json" >/dev/null
    if ! grep '"admits"' "$sep_json" | diff -u tests/golden/separations_small.txt -; then
        echo "separation drift against tests/golden/separations_small.txt" >&2
        exit 1
    fi

    # Serve gate: boot the real `smc serve` binary and drive it over
    # loopback with `smc loadgen` at its defaults (1024 sessions x 64
    # TSO events over 8 connections, a QUERY every 32). Every session's
    # final verdict must match the offline monitor (the loadgen exits
    # nonzero on any mismatch), and events/sec must stay within 1.5x of
    # the committed BENCH_serve.json baseline; intended perf changes
    # must regenerate it. The run's JSON stays in target/ for CI to
    # upload.
    echo "==> smc serve + loadgen --verify (events/sec >= baseline/1.5)"
    serve_json=target/BENCH_serve.json
    start_server "$tmp/serve.log" "serve gate"
    ./target/release/smc loadgen --addr "$serve_addr" --verify --shutdown \
        --json "$serve_json" >/dev/null
    wait "$serve_pid"
    if ! grep -q '"verified":true' "$serve_json"; then
        echo "serve gate: verdict mismatch against the offline monitor" >&2
        exit 1
    fi
    eps_base=$(grep -o '"events_per_sec":[0-9]*' BENCH_serve.json | grep -o '[0-9]*$' || true)
    eps_now=$(grep -o '"events_per_sec":[0-9]*' "$serve_json" | grep -o '[0-9]*$' || true)
    at_most "serve baseline events/sec vs current" "$eps_base" "$eps_now" 15 10 \
        "server ingest throughput regressed: check batching and the worker pool"

    # Session lifecycle smoke: a live session checkpointed over the wire
    # with SNAPSHOT must come back under a new id with RESUME carrying
    # its event count, keep accepting events, and STATS must count both.
    # Snapshots are names inside the --evict-dir directory: a name that
    # tries to leave it is refused, and nothing lands outside it.
    echo "==> serve SNAPSHOT/RESUME smoke"
    touch "$tmp/life.start"
    start_server "$tmp/life.log" "lifecycle smoke" --evict-dir "$tmp/ckpt"
    life_out=$(bash -c '
        addr=$1
        exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
        printf "OPEN a\n@a p w(x)1\n@a q r(x)1\nSNAPSHOT a ../x\nSNAPSHOT a a\nCLOSE a\nRESUME b a\n@b q r(x)1\nQUERY b\nSTATS\nSHUTDOWN\n" >&3
        cat <&3
    ' smoke "$serve_addr")
    wait "$serve_pid"
    for want in "SNAPSHOTTED a 2" "RESUMED b 2" "VERDICT b 3" "snapshots=1" "resumes=1" "ERR snapshot \`../x\`"; do
        if ! printf '%s\n' "$life_out" | grep -qF "$want"; then
            echo "lifecycle smoke: missing \`$want\` in server replies:" >&2
            printf '%s\n' "$life_out" >&2
            exit 1
        fi
    done
    outside=$(find "$tmp" -newer "$tmp/life.start" ! -path "$tmp" ! -path "$tmp/life.log" \
        ! -path "$tmp/ckpt" ! -path "$tmp/ckpt/*")
    if [ -n "$outside" ]; then
        echo "lifecycle smoke: files written outside $tmp/ckpt:" >&2
        printf '%s\n' "$outside" >&2
        exit 1
    fi

    # Bench drift gate for the parallel small-history pessimization: on a
    # litmus-sized check the adaptive cutover must keep `check_parallel`
    # at 4 workers within 1.5x of the sequential checker. Without the
    # probe, j4 pays thread spawn and the shared node pool on a 13-node
    # PRAM search and runs about 5x slower.
    echo "==> bench drift gate (split_dfs_pram_reversed: j4 <= 1.5x sequential)"
    bench_json="$tmp/bench.json"
    cargo bench -q --bench bench_batch -- split_dfs_pram_reversed --json "$bench_json" >/dev/null
    at_most "check_parallel_j4 vs sequential" \
        "$(row_ns batch/split_dfs_pram_reversed/check_parallel_j4 "$bench_json")" \
        "$(row_ns batch/split_dfs_pram_reversed/sequential "$bench_json")" 15 10 \
        "the parallel small-history pessimization is back: check the cutover probe"

    # Saturation bench drift gate: the conflict-driven solver must keep
    # `bighist/TSO_ops_256/saturate` within 1.5x of the committed
    # BENCH_bighist.json baseline. A regression here means watched
    # propagation, learning, or the branching heuristic lost its edge —
    # intended perf changes must regenerate BENCH_bighist.json.
    echo "==> bench drift gate (TSO_ops_256/saturate <= 1.5x committed baseline)"
    sat_json="$tmp/sat.json"
    cargo bench -q --bench bench_bighist -- TSO_ops_256 --json "$sat_json" >/dev/null
    at_most "TSO_ops_256/saturate vs baseline" \
        "$(row_ns bighist/TSO_ops_256/saturate "$sat_json")" \
        "$(row_ns bighist/TSO_ops_256/saturate BENCH_bighist.json)" 15 10 \
        "saturation engine regressed: check watched propagation and learning"

    # Lifecycle bench gates: (a) resuming a 10k-event session from a
    # checkpoint must stay >= 5x faster than cold-replaying the stream
    # (the whole point of checkpoints — in practice it is >100x); (b)
    # warm restore must stay within 1.5x of the committed
    # BENCH_lifecycle.json baseline; (c) windowed monitoring cost must
    # stay linear in stream length (10k events <= 3x the 5k time —
    # superlinear growth means window seals stopped bounding the
    # frontier; the bench itself asserts the state-count ceiling).
    echo "==> bench drift gate (lifecycle: warm restore >= 5x cold replay, linear windows)"
    life_json="$tmp/life.json"
    cargo bench -q --bench bench_lifecycle -- --json "$life_json" >/dev/null
    warm_ns=$(row_ns lifecycle/session_10000_events/warm_restore "$life_json")
    at_most "warm restore vs cold replay" "$warm_ns" \
        "$(row_ns lifecycle/session_10000_events/cold_replay "$life_json")" 1 5 \
        "checkpoint restore regressed: check ckpt deserialization and engine reload"
    at_most "warm restore vs baseline" "$warm_ns" \
        "$(row_ns lifecycle/session_10000_events/warm_restore BENCH_lifecycle.json)" 15 10 \
        "intended perf changes must regenerate BENCH_lifecycle.json"
    at_most "windowed 10k events vs 5k" \
        "$(row_ns lifecycle/windowed_steady_state/10000_events "$life_json")" \
        "$(row_ns lifecycle/windowed_steady_state/5000_events "$life_json")" 3 1 \
        "windowed monitoring went superlinear: check window sealing"
fi

echo "==> OK"
