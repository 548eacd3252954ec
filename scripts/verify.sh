#!/bin/sh
# Full verification gate: release build, complete test suite (faults off
# and on), observability neutrality, lints, formatting.
# Run from anywhere; operates on the repository this script lives in.
set -u

cd "$(dirname "$0")/.."

if ! command -v cargo >/dev/null 2>&1; then
    echo "error: cargo not found in PATH — install a Rust toolchain (https://rustup.rs) to verify" >&2
    exit 127
fi

# Formatting first: it is the cheapest gate, so a style failure surfaces
# before the minutes-long build and test passes.
echo "==> cargo fmt --check"
cargo fmt --all --check || exit $?

# Panic-site gate: non-test library code in mwc-soc and mwc-analysis must
# contain zero panic sites (unwrap/expect/panic!/unreachable!) — the
# serving layer's panic isolation is a last resort, not a license. The
# scan covers everything before each file's `#[cfg(test)]` module,
# including doc examples. PR 3 drove the count 21 -> 2, this gate pins 0.
echo "==> panic-site gate (soc + analysis non-test code)"
panic_sites=$(
    find crates/soc/src crates/analysis/src -name "*.rs" | while IFS= read -r f; do
        awk '/#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f" \
            | grep -E "unwrap\(\)|expect\(|panic!|unreachable!"
    done
)
if [ -n "$panic_sites" ]; then
    echo "error: panic sites found in non-test soc/analysis code:" >&2
    printf '%s\n' "$panic_sites" >&2
    exit 1
fi
echo "    zero panic sites"

echo "==> cargo build --release"
cargo build --release || exit $?

echo "==> cargo build --release -p mwc-bench --bins"
cargo build --release -p mwc-bench --bins || exit $?

# Run both test passes to completion even if the first fails, then
# propagate: a fault-model regression should not mask (or be masked by)
# a fault-free one.
echo "==> cargo test -q --workspace (faults off)"
cargo test -q --workspace
tests_off=$?

echo "==> cargo test -q --workspace (fault plan: seed 7, 5% dropout, truncation)"
MWC_FAULT_SEED=7 MWC_FAULT_DROPOUT=0.05 MWC_FAULT_TRUNCATION=0.055 \
    cargo test -q -p mobile-workload-characterization --test fault_tolerance
tests_faulted=$?

if [ "$tests_off" -ne 0 ]; then
    echo "error: fault-free test pass failed (exit $tests_off)" >&2
    exit "$tests_off"
fi
if [ "$tests_faulted" -ne 0 ]; then
    echo "error: fault-injected test pass failed (exit $tests_faulted)" >&2
    exit "$tests_faulted"
fi

echo "==> serving races (telemetry + server_robustness, 10 release runs each)"
# A response racing its debug-ring record, or a shed racing its client,
# only shows on repetition.
race_log="target/verify-race.log"
for suite in telemetry server_robustness; do
    run=1
    while [ "$run" -le 10 ]; do
        cargo test -q --release -p mobile-workload-characterization --test "$suite" \
            >"$race_log" 2>&1 || {
            echo "error: --test $suite failed on release run $run of 10; output follows" >&2
            cat "$race_log" >&2
            exit 1
        }
        run=$((run + 1))
    done
done
rm -f "$race_log"
echo "    20 release runs passed"

echo "==> observability neutrality (traced vs untraced study digest)"
# MWC_CACHE=off so both digests come from real computations — the cache
# path has its own gate below.
trace_tmp="target/verify-trace.json"
digest_off=$(MWC_CACHE=off ./target/release/profile | awk '/^study digest:/ { print $3 }') || exit 1
digest_on=$(MWC_CACHE=off MWC_TRACE="$trace_tmp" ./target/release/profile | awk '/^study digest:/ { print $3 }') || exit 1
if [ -z "$digest_off" ] || [ -z "$digest_on" ]; then
    echo "error: profile binary printed no study digest" >&2
    exit 1
fi
if [ "$digest_off" != "$digest_on" ]; then
    echo "error: tracing perturbed the study: digest $digest_off (off) vs $digest_on (MWC_TRACE on)" >&2
    exit 1
fi
if [ ! -s "$trace_tmp" ]; then
    echo "error: MWC_TRACE=$trace_tmp produced no trace file" >&2
    exit 1
fi
rm -f "$trace_tmp"
echo "    digests match: $digest_off"

echo "==> engine equivalence (dense vs event-driven core digest)"
# The event-driven core is the default; forcing the dense per-tick core
# must reproduce the exact same study digest — the bit-identity contract
# from tests/event_engine.rs, re-checked end to end on the release binary.
digest_dense=$(MWC_CACHE=off MWC_SOC_ENGINE=dense ./target/release/profile \
    | awk '/^study digest:/ { print $3 }') || exit 1
if [ -z "$digest_dense" ]; then
    echo "error: profile binary printed no study digest under MWC_SOC_ENGINE=dense" >&2
    exit 1
fi
if [ "$digest_off" != "$digest_dense" ]; then
    echo "error: engine cores diverged: digest $digest_off (event) vs $digest_dense (dense)" >&2
    exit 1
fi
echo "    digests match: $digest_dense"

echo "==> telemetry neutrality (wide-event logs + debug ring vs all-off digest)"
# Same rule for the PR-8 telemetry sinks: debug-level structured logging
# and the debug ring must leave the study digest bit-identical.
log_tmp="target/verify-telemetry-log.jsonl"
rm -f "$log_tmp"
digest_logged=$(MWC_CACHE=off MWC_LOG=debug MWC_LOG_FILE="$log_tmp" MWC_SERVER_DEBUG_RING=64 \
    ./target/release/profile | awk '/^study digest:/ { print $3 }') || exit 1
if [ -z "$digest_logged" ]; then
    echo "error: profile binary printed no study digest under MWC_LOG=debug" >&2
    exit 1
fi
if [ "$digest_off" != "$digest_logged" ]; then
    echo "error: telemetry perturbed the study: digest $digest_off (off) vs $digest_logged (MWC_LOG=debug)" >&2
    exit 1
fi
rm -f "$log_tmp"
echo "    digests match: $digest_logged"

echo "==> result cache (cold vs warm digest, corruption degradation)"
cache_dir="target/verify-cache"
rm -rf "$cache_dir"

cold_out=$(MWC_CACHE_DIR="$cache_dir" ./target/release/profile) || exit 1
digest_cold=$(printf '%s\n' "$cold_out" | awk '/^study digest:/ { print $3 }')
warm_out=$(MWC_CACHE_DIR="$cache_dir" ./target/release/profile) || exit 1
digest_warm=$(printf '%s\n' "$warm_out" | awk '/^study digest:/ { print $3 }')
warm_hits=$(printf '%s\n' "$warm_out" \
    | awk '/^cache stats:/ { for (i = 1; i <= NF; i++) if (sub("^disk_hits=", "", $i)) print $i }')

if [ -z "$digest_cold" ] || [ -z "$digest_warm" ]; then
    echo "error: cache passes printed no study digest" >&2
    exit 1
fi
if [ "$digest_cold" != "$digest_warm" ]; then
    echo "error: warm cache run is not bit-identical: $digest_cold (cold) vs $digest_warm (warm)" >&2
    exit 1
fi
if [ -z "$warm_hits" ] || [ "$warm_hits" -eq 0 ]; then
    echo "error: warm run served no entries from the disk cache (disk_hits=${warm_hits:-?})" >&2
    exit 1
fi

# Scribble over every entry: the next run must still succeed, count the
# corruption, and reproduce the digest by recomputing.
found_entry=0
for f in "$cache_dir"/*.mwcc; do
    [ -e "$f" ] || break
    found_entry=1
    printf 'garbage' > "$f"
done
if [ "$found_entry" -eq 0 ]; then
    echo "error: cold run left no cache entries in $cache_dir" >&2
    exit 1
fi
corrupt_out=$(MWC_CACHE_DIR="$cache_dir" ./target/release/profile) || {
    echo "error: corrupted cache entries broke the run instead of degrading" >&2
    exit 1
}
digest_corrupt=$(printf '%s\n' "$corrupt_out" | awk '/^study digest:/ { print $3 }')
corrupt_count=$(printf '%s\n' "$corrupt_out" \
    | awk '/^cache stats:/ { for (i = 1; i <= NF; i++) if (sub("^corrupt=", "", $i)) print $i }')
if [ "$digest_corrupt" != "$digest_cold" ]; then
    echo "error: recompute after corruption diverged: $digest_cold vs $digest_corrupt" >&2
    exit 1
fi
if [ -z "$corrupt_count" ] || [ "$corrupt_count" -eq 0 ]; then
    echo "error: corrupted entries were not detected (corrupt=${corrupt_count:-?})" >&2
    exit 1
fi
rm -rf "$cache_dir"
echo "    cold/warm digests match ($digest_cold); warm disk hits: $warm_hits; corruption degraded to recompute ($corrupt_count entries)"

echo "==> incremental stage graph (one-knob change after warm capture)"
# Warm the per-unit artifact layer, then flip one unit's fault config:
# exactly that unit must re-simulate (sims=1, reused=17), and the stitched
# study must be bit-identical to a cold run of the same flipped spec.
incr_dir="target/verify-incr"
incr_cold_dir="target/verify-incr-cold"
rm -rf "$incr_dir" "$incr_cold_dir"

MWC_CACHE_DIR="$incr_dir" ./target/release/profile >/dev/null || exit 1
flip_out=$(MWC_CACHE_DIR="$incr_dir" MWC_FAULT_SEED=7 MWC_FAULT_JITTER=0.01 \
    MWC_FAULT_UNITS="Antutu CPU" ./target/release/profile) || exit 1
digest_flip=$(printf '%s\n' "$flip_out" | awk '/^study digest:/ { print $3 }')
flip_sims=$(printf '%s\n' "$flip_out" \
    | awk '/^stage stats:/ { for (i = 1; i <= NF; i++) if (sub("^sims=", "", $i)) print $i }')
flip_reused=$(printf '%s\n' "$flip_out" \
    | awk '/^stage stats:/ { for (i = 1; i <= NF; i++) if (sub("^reused=", "", $i)) print $i }')

if [ -z "$digest_flip" ] || [ -z "$flip_sims" ] || [ -z "$flip_reused" ]; then
    echo "error: flipped run printed no digest or stage stats" >&2
    exit 1
fi
if [ "$flip_sims" -ne 1 ] || [ "$flip_reused" -ne 17 ]; then
    echo "error: one-knob change re-simulated $flip_sims units and reused $flip_reused (want 1 and 17)" >&2
    exit 1
fi

cold_flip_out=$(MWC_CACHE_DIR="$incr_cold_dir" MWC_FAULT_SEED=7 MWC_FAULT_JITTER=0.01 \
    MWC_FAULT_UNITS="Antutu CPU" ./target/release/profile) || exit 1
digest_cold_flip=$(printf '%s\n' "$cold_flip_out" | awk '/^study digest:/ { print $3 }')
if [ "$digest_flip" != "$digest_cold_flip" ]; then
    echo "error: incremental study diverged from cold recompute: $digest_flip vs $digest_cold_flip" >&2
    exit 1
fi
rm -rf "$incr_dir" "$incr_cold_dir"
echo "    one-knob change: sims=$flip_sims reused=$flip_reused; digest matches cold run ($digest_flip)"

echo "==> fleet execution gate (subprocess shards vs local, resumable sweep)"
# A 3-point sweep over 3 units: the subprocess backend (2 worker
# processes per point) must reproduce the in-process sweep digest
# bit-for-bit, with every unit arriving from a shard and zero worker
# failures. MWC_CACHE=off so every digest comes from a real computation.
fleet_units="Aitutu, Antutu CPU, Antutu GPU"
fleet_db="target/verify-fleet.mwdb"
rm -f "$fleet_db"

fleet_local_out=$(MWC_CACHE=off ./target/release/sweep \
    --seeds 3 --base-seed 4100 --units "$fleet_units") || exit 1
fleet_digest_local=$(printf '%s\n' "$fleet_local_out" | awk '/^sweep digest:/ { print $3 }')

fleet_sub_out=$(MWC_CACHE=off MWC_EXEC=subprocess MWC_EXEC_SHARDS=2 ./target/release/sweep \
    --seeds 3 --base-seed 4100 --units "$fleet_units") || exit 1
fleet_digest_sub=$(printf '%s\n' "$fleet_sub_out" | awk '/^sweep digest:/ { print $3 }')
fleet_shipped=$(printf '%s\n' "$fleet_sub_out" \
    | awk '/^exec stats:/ { for (i = 1; i <= NF; i++) if (sub("^shipped=", "", $i)) print $i }')
fleet_failures=$(printf '%s\n' "$fleet_sub_out" \
    | awk '/^exec stats:/ { for (i = 1; i <= NF; i++) if (sub("^failures=", "", $i)) print $i }')

if [ -z "$fleet_digest_local" ] || [ -z "$fleet_digest_sub" ]; then
    echo "error: fleet sweep passes printed no sweep digest" >&2
    exit 1
fi
if [ "$fleet_digest_local" != "$fleet_digest_sub" ]; then
    echo "error: subprocess sweep diverged: $fleet_digest_local (local) vs $fleet_digest_sub (subprocess:2)" >&2
    exit 1
fi
if [ -z "$fleet_shipped" ] || [ "$fleet_shipped" -ne 9 ]; then
    echo "error: subprocess sweep shipped $fleet_shipped of 9 units from workers" >&2
    exit 1
fi
if [ -z "$fleet_failures" ] || [ "$fleet_failures" -ne 0 ]; then
    echo "error: subprocess sweep recorded worker failures=$fleet_failures" >&2
    exit 1
fi

# Interrupt-then-resume against the study database: the first pass
# completes one point and stops (--limit 1); the rerun must replay that
# point from the DB and simulate only the remaining two (soc_runs is
# the oracle: 2 points x 3 units x 1 run).
MWC_CACHE=off MWC_STUDY_DB="$fleet_db" ./target/release/sweep \
    --seeds 3 --base-seed 4100 --units "$fleet_units" --limit 1 >/dev/null || exit 1
fleet_resume_out=$(MWC_CACHE=off MWC_STUDY_DB="$fleet_db" ./target/release/sweep \
    --seeds 3 --base-seed 4100 --units "$fleet_units") || exit 1
fleet_digest_resume=$(printf '%s\n' "$fleet_resume_out" | awk '/^sweep digest:/ { print $3 }')
fleet_replayed=$(printf '%s\n' "$fleet_resume_out" \
    | awk '/^sweep stats:/ { for (i = 1; i <= NF; i++) if (sub("^replayed_db=", "", $i)) print $i }')
fleet_soc_runs=$(printf '%s\n' "$fleet_resume_out" \
    | awk '/^sweep stats:/ { for (i = 1; i <= NF; i++) if (sub("^soc_runs=", "", $i)) print $i }')

if [ "$fleet_digest_resume" != "$fleet_digest_local" ]; then
    echo "error: resumed sweep diverged: $fleet_digest_local (clean) vs $fleet_digest_resume (resumed)" >&2
    exit 1
fi
if [ -z "$fleet_replayed" ] || [ "$fleet_replayed" -ne 1 ]; then
    echo "error: resume replayed $fleet_replayed points from the study DB (want 1)" >&2
    exit 1
fi
if [ -z "$fleet_soc_runs" ] || [ "$fleet_soc_runs" -ne 6 ]; then
    echo "error: resume ran $fleet_soc_runs simulations (want 6 = 2 points x 3 units)" >&2
    exit 1
fi
MWC_STUDY_DB="$fleet_db" ./target/release/report | grep -q "(3 records)" || {
    echo "error: report did not list the 3 sweep records in $fleet_db" >&2
    exit 1
}
rm -f "$fleet_db"
echo "    subprocess:2 sweep bit-identical ($fleet_digest_sub, shipped=$fleet_shipped); resume replayed 1 point, simulated 6 runs"

echo "==> kernel bench smoke pass (MWC_BENCH_FAST=1)"
bench_json="$PWD/target/verify-bench.json"
rm -f "$bench_json"
MWC_BENCH_FAST=1 MWC_BENCH_JSON="$bench_json" \
    cargo bench -q -p mwc-bench --bench kernels >/dev/null || {
    echo "error: kernel bench smoke pass failed" >&2
    exit 1
}
if [ ! -s "$bench_json" ]; then
    echo "error: kernel bench smoke pass wrote no $bench_json" >&2
    exit 1
fi
rm -f "$bench_json"
echo "    kernels bench ran and wrote a JSON report"

echo "==> simulator-core bench smoke pass (MWC_BENCH_FAST=1)"
soc_bench_json="$PWD/target/verify-bench-soc.json"
rm -f "$soc_bench_json"
MWC_BENCH_FAST=1 MWC_BENCH_JSON="$soc_bench_json" \
    cargo bench -q -p mwc-bench --bench soc_engine >/dev/null || {
    echo "error: soc_engine bench smoke pass failed" >&2
    exit 1
}
if [ ! -s "$soc_bench_json" ]; then
    echo "error: soc_engine bench smoke pass wrote no $soc_bench_json" >&2
    exit 1
fi
rm -f "$soc_bench_json"
echo "    soc_engine bench ran and wrote a JSON report"

echo "==> f32-kernels feature (build + tests)"
cargo test -q -p mwc-analysis --features f32-kernels || {
    echo "error: mwc-analysis tests failed under --features f32-kernels" >&2
    exit 1
}
echo "    f32 kernel path builds and passes its tolerance tests"

echo "==> server smoke gate (boot, load, clean drain, zero panics)"
cargo build --release -p mwc-server --bins || exit $?
server_log="target/verify-server.log"
server_events="target/verify-server-log.jsonl"
rm -f "$server_events"

# Print the address a server logging to "$1" listens on, waiting up to
# 10 s for it to come up.
await_server() {
    tries=0
    while [ "$tries" -lt 100 ]; do
        addr=$(awk '/^mwc-server listening on / { print $4; exit }' "$1" 2>/dev/null)
        if [ -n "$addr" ]; then
            printf '%s\n' "$addr"
            return 0
        fi
        tries=$((tries + 1))
        sleep 0.1
    done
    return 1
}

MWC_SERVER_ADDR=127.0.0.1:0 MWC_SERVER_WORKERS=2 MWC_SERVER_QUEUE=16 \
    MWC_SERVER_DEBUG_RING=64 MWC_LOG=info MWC_LOG_FILE="$server_events" \
    ./target/release/mwc-server >"$server_log" 2>&1 &
server_pid=$!
server_addr=$(await_server "$server_log")
if [ -z "$server_addr" ]; then
    echo "error: mwc-server did not come up; log follows" >&2
    cat "$server_log" >&2
    kill "$server_pid" 2>/dev/null
    exit 1
fi
./target/release/wrkr --addr "$server_addr" --get /healthz >/dev/null || {
    echo "error: /healthz failed" >&2
    kill "$server_pid" 2>/dev/null
    exit 1
}
./target/release/wrkr --addr "$server_addr" -c 4 -n 8 >/dev/null || {
    echo "error: wrkr smoke load failed; server log follows" >&2
    cat "$server_log" >&2
    kill "$server_pid" 2>/dev/null
    exit 1
}
./target/release/wrkr --addr "$server_addr" --get /metrics | grep -q "server_requests" || {
    echo "error: /metrics did not report server_requests" >&2
    kill "$server_pid" 2>/dev/null
    exit 1
}
./target/release/wrkr --addr "$server_addr" --get /metrics | grep -q "server_rolling_p99_ns" || {
    echo "error: /metrics did not report the rolling telemetry tail (server_rolling_p99_ns)" >&2
    kill "$server_pid" 2>/dev/null
    exit 1
}
./target/release/wrkr --addr "$server_addr" --get /debug/requests | grep -q "wrkr-" || {
    echo "error: /debug/requests did not list the wrkr smoke load's trace IDs" >&2
    kill "$server_pid" 2>/dev/null
    exit 1
}
./target/release/dash --addr "$server_addr" --once | grep -q "p99" || {
    echo "error: dash --once did not render against the live server" >&2
    kill "$server_pid" 2>/dev/null
    exit 1
}
./target/release/wrkr --addr "$server_addr" --shutdown >/dev/null || {
    echo "error: /admin/shutdown failed" >&2
    kill "$server_pid" 2>/dev/null
    exit 1
}
wait "$server_pid"
server_exit=$?
if [ "$server_exit" -ne 0 ]; then
    echo "error: mwc-server exited $server_exit instead of draining cleanly" >&2
    cat "$server_log" >&2
    exit 1
fi
server_panics=$(sed -n 's/.*drained clean.*panics=\([0-9]*\).*/\1/p' "$server_log")
if [ -z "$server_panics" ] || [ "$server_panics" -ne 0 ]; then
    echo "error: server smoke run recorded panics=${server_panics:-?}" >&2
    cat "$server_log" >&2
    exit 1
fi
if ! grep -q '"event":"request"' "$server_events"; then
    echo "error: MWC_LOG=info wrote no wide-event request lines to $server_events" >&2
    exit 1
fi
rm -f "$server_log" "$server_events"
echo "    served smoke load on $server_addr (rolling metrics, debug ring, dash, wide events), drained clean with zero panics"

echo "==> server SIGTERM gate (signal flag -> shutdown -> acceptor wake-up)"
# SIGTERM sets the binary's signal flag; its main loop then asks the
# server to shut down, which wakes the acceptor blocked in accept. The
# process must drain and exit 0 within a few seconds.
MWC_SERVER_ADDR=127.0.0.1:0 ./target/release/mwc-server >"$server_log" 2>&1 &
server_pid=$!
server_addr=$(await_server "$server_log")
if [ -z "$server_addr" ]; then
    echo "error: mwc-server did not come up for the SIGTERM gate; log follows" >&2
    cat "$server_log" >&2
    kill "$server_pid" 2>/dev/null
    exit 1
fi
./target/release/wrkr --addr "$server_addr" --get /healthz >/dev/null || {
    echo "error: /healthz failed before SIGTERM" >&2
    kill "$server_pid" 2>/dev/null
    exit 1
}
kill -TERM "$server_pid"
waited=0
while kill -0 "$server_pid" 2>/dev/null && [ "$waited" -lt 50 ]; do
    waited=$((waited + 1))
    sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
    echo "error: mwc-server still running 5 s after SIGTERM; log follows" >&2
    cat "$server_log" >&2
    kill -KILL "$server_pid" 2>/dev/null
    exit 1
fi
wait "$server_pid"
server_exit=$?
if [ "$server_exit" -ne 0 ] || ! grep -q "drained clean" "$server_log"; then
    echo "error: mwc-server exited $server_exit after SIGTERM without a clean drain; log follows" >&2
    cat "$server_log" >&2
    exit 1
fi
rm -f "$server_log"
echo "    SIGTERM drained clean on $server_addr"

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings || exit $?

echo "==> all checks passed"
