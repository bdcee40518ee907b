#!/usr/bin/env sh
# Quality gate: formatting + lints + the full test suite.
#
# Usage: scripts/check.sh [--no-test]
#   --no-test   run only the fast static checks (fmt + clippy)
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

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
    # saturation cross-check, sweep determinism, and serve payloads
    # against the offline monitor. It reports a failed check in its last
    # line, not its exit code, so run each gated workload briefly and
    # read that line.
    for workload in check_universe serve_sessions; do
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
    # nothing if the file has no such row (each gate then fails naming
    # the missing row).
    row_ns() {
        grep -o "\"$1\", \"ns_per_iter\": [0-9]*" "$2" | grep -o '[0-9]*$' || true
    }

    # Start `smc serve` on an ephemeral loopback port, logging to $1, and
    # set serve_pid and serve_addr once it reports its address; if it
    # never does, fail the gate named $2.
    start_server() {
        ./target/release/smc serve --listen 127.0.0.1:0 >"$1" &
        serve_pid=$!
        serve_addr=""
        for _ in $(seq 1 100); do
            serve_addr=$(sed -n 's/^listening on //p' "$1")
            [ -n "$serve_addr" ] && break
            sleep 0.1
        done
        if [ -z "$serve_addr" ]; then
            echo "$2: server never reported its address" >&2
            kill "$serve_pid" 2>/dev/null || true
            exit 1
        fi
    }

    # Verdict drift gate: the exhaustive small-history sweep must classify
    # every history exactly as the checked-in golden file records. A diff
    # here means a checker change altered admitted sets — intended changes
    # must regenerate tests/golden/exhaustive_verdicts.txt.
    echo "==> smc corpus --exhaustive (golden verdicts)"
    sweep_json="$tmp/sweep.json"
    sweep_j4="$tmp/sweep_j4.json"
    cargo run -q --release --bin smc -- corpus --exhaustive --json "$sweep_json" >/dev/null
    if ! grep '"verdicts"' "$sweep_json" | diff -u tests/golden/exhaustive_verdicts.txt -; then
        echo "verdict drift against tests/golden/exhaustive_verdicts.txt" >&2
        exit 1
    fi

    # Batch equivalence gate: fanning the exhaustive sweep's histories
    # across 4 workers must classify it bit-identically to the sequential
    # sweep — same golden file. The sweep never enters `check_parallel`;
    # the parallel drivers' verdict gate is
    # `schedulers_agree_across_job_counts` in tests/batch_equiv.rs.
    echo "==> smc corpus --exhaustive --jobs 4 (j1 vs j4 equivalence)"
    cargo run -q --release --bin smc -- corpus --exhaustive --jobs 4 --json "$sweep_j4" >/dev/null
    if ! grep '"verdicts"' "$sweep_j4" | diff -u tests/golden/exhaustive_verdicts.txt -; then
        echo "parallel (jobs=4) verdicts drifted from tests/golden/exhaustive_verdicts.txt" >&2
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

    # Engine equivalence gate: the order-constraint saturation engine
    # must agree with the exhaustive checker on every corpus history for
    # every model that advertises saturate support, and every saturate
    # witness must pass the independent verifier. The command exits
    # nonzero on any divergence, printing the offending (test, model).
    echo "==> smc corpus --engine-equiv (exhaustive vs saturate)"
    cargo run -q --release --bin smc -- corpus --engine-equiv --jobs 4 >/dev/null

    # Monitor golden gate: replay the whole litmus corpus through the
    # streaming monitor and diff its final verdicts against the batch
    # checker's, per model. The command itself exits nonzero on any
    # mismatch, printing the offending (test, model) pair.
    echo "==> smc monitor --corpus (streaming vs batch verdicts)"
    cargo run -q --release --bin smc -- monitor --corpus --jobs 4 >/dev/null

    # Serve smoke gate: boot the real `smc serve` binary, drive it over
    # loopback with `smc loadgen --verify`, and require every session's
    # final verdict to match the offline monitor (the loadgen exits
    # nonzero on any mismatch). --shutdown stops the server afterwards.
    echo "==> smc serve + loadgen --verify (loopback smoke)"
    start_server "$tmp/serve.log" "serve gate"
    ./target/release/smc loadgen --addr "$serve_addr" --sessions 64 --events 16 \
        --conns 4 --query-every 8 --seed 42 --verify --shutdown >/dev/null
    wait "$serve_pid"

    # Session lifecycle smoke: a live session checkpointed over the wire
    # with SNAPSHOT must come back under a new id with RESUME carrying
    # its event count, keep accepting events, and STATS must count both.
    echo "==> serve SNAPSHOT/RESUME smoke"
    start_server "$tmp/life.log" "lifecycle smoke"
    life_out=$(bash -c '
        addr=$1; dir=$2
        exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
        printf "OPEN a\n@a p w(x)1\n@a q r(x)1\nSNAPSHOT a %s\nCLOSE a\nRESUME b %s\n@b q r(x)1\nQUERY b\nSTATS\nSHUTDOWN\n" \
            "$dir/a.ckpt" "$dir/a.ckpt" >&3
        cat <&3
    ' smoke "$serve_addr" "$tmp")
    wait "$serve_pid"
    for want in "SNAPSHOTTED a 2" "RESUMED b 2" "VERDICT b 3" "snapshots=1" "resumes=1"; do
        if ! printf '%s\n' "$life_out" | grep -q "$want"; then
            echo "lifecycle smoke: missing \`$want\` in server replies:" >&2
            printf '%s\n' "$life_out" >&2
            exit 1
        fi
    done

    # Serve bench drift gate: the default throughput bench (1024
    # sessions over loopback) must stay within 1.5x of the committed
    # BENCH_serve.json events/sec baseline, with every verdict verified
    # against the offline monitor. Intended perf changes must
    # regenerate BENCH_serve.json.
    echo "==> bench drift gate (serve --bench events/sec >= baseline/1.5)"
    serve_json="$tmp/serve.json"
    ./target/release/smc serve --bench --json "$serve_json" >/dev/null
    if ! grep -q '"verified":true' "$serve_json"; then
        echo "serve bench gate: verdict mismatch against the offline monitor" >&2
        exit 1
    fi
    eps_base=$(grep -o '"events_per_sec":[0-9]*' BENCH_serve.json | grep -o '[0-9]*$')
    eps_now=$(grep -o '"events_per_sec":[0-9]*' "$serve_json" | grep -o '[0-9]*$')
    if [ -z "$eps_base" ] || [ -z "$eps_now" ]; then
        echo "serve bench gate: missing events_per_sec rows" >&2
        exit 1
    fi
    if [ $((eps_now * 15)) -lt $((eps_base * 10)) ]; then
        echo "serve bench gate: ${eps_now} events/sec < baseline ${eps_base}/1.5" >&2
        echo "server ingest throughput regressed — check batching and the worker pool" >&2
        exit 1
    fi
    echo "    baseline ${eps_base} events/sec, current ${eps_now} (within 1.5x)"

    # Bench drift gate for the parallel small-history pessimization: on a
    # litmus-sized check the adaptive cutover must keep `check_parallel`
    # at 4 workers within 1.5x of the sequential checker. Without the
    # probe, j4 pays thread spawn and the shared node pool on a 13-node
    # PRAM search and runs about 5x slower.
    echo "==> bench drift gate (split_dfs_pram_reversed: j4 <= 1.5x sequential)"
    bench_json="$tmp/bench.json"
    cargo bench -q --bench bench_batch -- split_dfs_pram_reversed --json "$bench_json" >/dev/null
    seq_ns=$(row_ns batch/split_dfs_pram_reversed/sequential "$bench_json")
    j4_ns=$(row_ns batch/split_dfs_pram_reversed/check_parallel_j4 "$bench_json")
    if [ -z "$seq_ns" ] || [ -z "$j4_ns" ]; then
        echo "bench gate: missing split_dfs_pram_reversed rows in $bench_json" >&2
        exit 1
    fi
    if [ $((j4_ns * 10)) -gt $((seq_ns * 15)) ]; then
        echo "bench gate: check_parallel_j4 (${j4_ns}ns) > 1.5x sequential (${seq_ns}ns)" >&2
        echo "the parallel small-history pessimization is back — check the cutover probe" >&2
        exit 1
    fi
    echo "    sequential ${seq_ns}ns, check_parallel_j4 ${j4_ns}ns (within 1.5x)"

    # Saturation bench drift gate: the conflict-driven solver must keep
    # `bighist/TSO_ops_256/saturate` within 1.5x of the committed
    # BENCH_bighist.json baseline. A regression here means watched
    # propagation, learning, or the branching heuristic lost its edge —
    # intended perf changes must regenerate BENCH_bighist.json.
    echo "==> bench drift gate (TSO_ops_256/saturate <= 1.5x committed baseline)"
    sat_json="$tmp/sat.json"
    cargo bench -q --bench bench_bighist -- TSO_ops_256 --json "$sat_json" >/dev/null
    sat_base=$(row_ns bighist/TSO_ops_256/saturate BENCH_bighist.json)
    sat_now=$(row_ns bighist/TSO_ops_256/saturate "$sat_json")
    if [ -z "$sat_base" ] || [ -z "$sat_now" ]; then
        echo "bench gate: missing bighist/TSO_ops_256/saturate row" >&2
        exit 1
    fi
    if [ $((sat_now * 10)) -gt $((sat_base * 15)) ]; then
        echo "bench gate: TSO_ops_256/saturate (${sat_now}ns) > 1.5x baseline (${sat_base}ns)" >&2
        echo "saturation engine regressed — check watched propagation and learning" >&2
        exit 1
    fi
    echo "    baseline ${sat_base}ns, current ${sat_now}ns (within 1.5x)"

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
    cold_ns=$(row_ns lifecycle/session_10000_events/cold_replay "$life_json")
    warm_ns=$(row_ns lifecycle/session_10000_events/warm_restore "$life_json")
    warm_base=$(row_ns lifecycle/session_10000_events/warm_restore BENCH_lifecycle.json)
    w5_ns=$(row_ns lifecycle/windowed_steady_state/5000_events "$life_json")
    w10_ns=$(row_ns lifecycle/windowed_steady_state/10000_events "$life_json")
    if [ -z "$cold_ns" ] || [ -z "$warm_ns" ] || [ -z "$warm_base" ] || [ -z "$w5_ns" ] || [ -z "$w10_ns" ]; then
        echo "lifecycle bench gate: missing rows in $life_json" >&2
        exit 1
    fi
    if [ $((warm_ns * 5)) -gt "$cold_ns" ]; then
        echo "lifecycle bench gate: warm restore (${warm_ns}ns) not 5x faster than cold replay (${cold_ns}ns)" >&2
        echo "checkpoint restore regressed — check ckpt deserialization and engine reload" >&2
        exit 1
    fi
    if [ $((warm_ns * 10)) -gt $((warm_base * 15)) ]; then
        echo "lifecycle bench gate: warm restore (${warm_ns}ns) > 1.5x baseline (${warm_base}ns)" >&2
        echo "intended perf changes must regenerate BENCH_lifecycle.json" >&2
        exit 1
    fi
    if [ "$w10_ns" -gt $((w5_ns * 3)) ]; then
        echo "lifecycle bench gate: windowed 10k events (${w10_ns}ns) > 3x the 5k time (${w5_ns}ns)" >&2
        echo "windowed monitoring went superlinear — check window sealing" >&2
        exit 1
    fi
    echo "    cold ${cold_ns}ns, warm ${warm_ns}ns (>=5x), windows 5k ${w5_ns}ns -> 10k ${w10_ns}ns (linear)"
fi

echo "==> OK"
