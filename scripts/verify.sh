#!/bin/sh
# Full verification gate: release build, complete test suite,
# observability neutrality, lints, formatting.
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

# Knob inventory: every "MWC_*" name the code reads must have a row in
# README's environment table, and every row must name a knob that exists.
echo "==> knob inventory (MWC_* names in code vs README environment table)"
knobs_code="target/verify-knobs-code.txt"
knobs_readme="target/verify-knobs-readme.txt"
mkdir -p target
grep -rhoE --include='*.rs' '"MWC_[A-Z0-9_]+"' crates src | tr -d '"' | sort -u >"$knobs_code"
sed -n 's/^| `\(MWC_[A-Z0-9_]*\)`.*/\1/p' README.md | sort -u >"$knobs_readme"
if ! diff "$knobs_code" "$knobs_readme" >/dev/null; then
    echo "error: MWC_* names in code (<) and README's environment table (>) differ:" >&2
    diff "$knobs_code" "$knobs_readme" >&2
    exit 1
fi
echo "    $(wc -l <"$knobs_code" | tr -d ' ') names, all in README's table"
rm -f "$knobs_code" "$knobs_readme"

echo "==> cargo build --release"
cargo build --release || exit $?

echo "==> cargo build --release -p mwc-bench --bins"
cargo build --release -p mwc-bench --bins || exit $?

echo "==> cargo test -q --workspace"
cargo test -q --workspace || exit $?

# Every test must pass under any thread count; the run above uses the
# default (available parallelism), this one a single worker. It also
# checks that no test of any crate writes outside target/ and its own
# temp dirs: HOME and XDG_CACHE_HOME point at a fresh empty directory,
# which must still be empty afterwards. CARGO_HOME and RUSTUP_HOME are
# pinned first so cargo still finds the toolchain, and the cache knobs
# are unset so a default cache directory would land in the empty one.
echo "==> cargo test -q --workspace at MWC_THREADS=1 (HOME and XDG_CACHE_HOME on an empty dir)"
empty_home="$PWD/target/verify-empty-home"
cargo_home="${CARGO_HOME:-$HOME/.cargo}"
rustup_home="${RUSTUP_HOME:-$HOME/.rustup}"
rm -rf "$empty_home"
mkdir -p "$empty_home" || exit 1
(
    unset MWC_CACHE MWC_CACHE_DIR
    CARGO_HOME="$cargo_home" RUSTUP_HOME="$rustup_home" HOME="$empty_home" \
        XDG_CACHE_HOME="$empty_home/xdg" MWC_THREADS=1 cargo test -q --workspace
) || exit $?
left_behind=$(cd "$empty_home" && find . -mindepth 1 | sed 's|^\./||')
if [ -n "$left_behind" ]; then
    echo "error: the workspace tests wrote outside target/ and their temp dirs (under HOME or XDG_CACHE_HOME):" >&2
    printf '%s\n' "$left_behind" >&2
    exit 1
fi
rm -rf "$empty_home"

echo "==> races (incremental + observability + telemetry x20, server_robustness x10, release)"
# Tests in one binary run concurrently, each study under its own mwc-obs
# collector or server, each server writing its own request log, and no
# test holding a lock; a study counted in another test's collector, a
# line in another server's log, a response racing its debug-ring record,
# or a shed racing its client only shows on repetition.
race_log="target/verify-race.log"
for entry in incremental:20 observability:20 telemetry:20 server_robustness:10; do
    suite=${entry%:*}
    runs=${entry#*:}
    run=1
    while [ "$run" -le "$runs" ]; do
        cargo test -q --release -p mobile-workload-characterization --test "$suite" \
            >"$race_log" 2>&1 || {
            echo "error: --test $suite failed on release run $run of $runs; output follows" >&2
            cat "$race_log" >&2
            exit 1
        }
        run=$((run + 1))
    done
done
rm -f "$race_log"
echo "    70 release runs passed"

echo "==> observability neutrality (traced study digest vs the pinned untraced one)"
# `profile` always collects, so its traced run is compared with the
# paper-default digest tests/columnar_reference.rs pins from a run with no
# collector. MWC_CACHE=off so the digest comes from a real computation —
# the cache path has its own gate below.
pinned_digest="568a6638913d7d44"
trace_tmp="target/verify-trace.json"
rm -f "$trace_tmp"
digest_on=$(MWC_CACHE=off MWC_TRACE="$trace_tmp" ./target/release/profile | awk '/^study digest:/ { print $3 }') || exit 1
if [ "$digest_on" != "$pinned_digest" ]; then
    echo "error: traced study digest ${digest_on:-?} differs from the pinned untraced $pinned_digest" >&2
    exit 1
fi
if [ ! -s "$trace_tmp" ]; then
    echo "error: MWC_TRACE=$trace_tmp produced no trace file" >&2
    exit 1
fi
rm -f "$trace_tmp"
# The fault-injected study takes the fault model's column paths (dropout,
# jitter, wraps and their repair, truncation, retries, one excluded unit);
# its traced digest must equal the one tests/fault_tolerance.rs pins from
# runs with no collector.
faulty_digest="69dd78275bfcd04c"
faulty_on=$(MWC_CACHE=off MWC_TRACE="$trace_tmp" ./target/release/profile --spec-file tests/data/faulty.spec \
    | awk '/^study digest:/ { print $3 }') || exit 1
if [ "$faulty_on" != "$faulty_digest" ]; then
    echo "error: traced faulty-study digest ${faulty_on:-?} differs from the pinned untraced $faulty_digest" >&2
    exit 1
fi
if [ ! -s "$trace_tmp" ]; then
    echo "error: MWC_TRACE=$trace_tmp produced no trace file for the faulty study" >&2
    exit 1
fi
rm -f "$trace_tmp"
echo "    traced digests match the pinned $pinned_digest (clean) and $faulty_digest (tests/data/faulty.spec); traces written"

echo "==> report worker-count invariance (all at MWC_THREADS=1, then at the default count)"
# The printed report must not depend on the worker count. Both runs share
# one cache directory: the first, on one worker, simulates and fills it;
# the second, at the default count, replays the study from it and
# recomputes every figure, table and observation.
report_cache="target/verify-report-cache"
report_one="target/verify-report-1.txt"
report_default="target/verify-report-default.txt"
rm -rf "$report_cache"
MWC_CACHE_DIR="$report_cache" MWC_THREADS=1 ./target/release/all >"$report_one" || exit 1
(
    unset MWC_THREADS
    MWC_CACHE_DIR="$report_cache" ./target/release/all >"$report_default"
) || exit 1
if ! cmp -s "$report_one" "$report_default"; then
    echo "error: all printed different reports at MWC_THREADS=1 (<) and at the default worker count (>):" >&2
    diff "$report_one" "$report_default" >&2
    exit 1
fi
report_lines=$(wc -l <"$report_one" | tr -d ' ')
rm -rf "$report_cache" "$report_one" "$report_default"
echo "    $report_lines lines, byte-identical on one worker and at the default count"

echo "==> result cache (cold vs warm digest, corruption degradation)"
cache_dir="target/verify-cache"
rm -rf "$cache_dir"

# Change the byte in the middle of file "$1".
flip_middle_byte() {
    offset=$(($(wc -c <"$1") / 2))
    byte=$(od -An -tu1 -j "$offset" -N1 "$1" | tr -d ' ')
    printf "\\$(printf '%03o' $((byte ^ 1)))" | dd of="$1" bs=1 seek="$offset" conv=notrunc 2>/dev/null
}

cold_out=$(MWC_CACHE_DIR="$cache_dir" ./target/release/profile) || exit 1
digest_cold=$(printf '%s\n' "$cold_out" | awk '/^study digest:/ { print $3 }')
# Every entry is one frame, whatever its kind, and opens with its magic.
found_entry=0
for f in "$cache_dir"/*.mwcc; do
    [ -e "$f" ] || break
    found_entry=1
    if [ "$(head -c 4 "$f")" != "MWCC" ]; then
        echo "error: cache entry $f does not start with the MWCC frame magic" >&2
        exit 1
    fi
done
if [ "$found_entry" -eq 0 ]; then
    echo "error: cold run left no cache entries in $cache_dir" >&2
    exit 1
fi
# The study entry is a manifest of its 18 unit entries, so each unit
# profile is stored once: the manifest stays under 4 KiB, and the 18 unit
# entries and the manifest together under 4.4 MB.
study_bytes=$(cat "$cache_dir"/study-*.mwcc | wc -c | tr -d ' ')
total_bytes=$(cat "$cache_dir"/*.mwcc | wc -c | tr -d ' ')
if [ "$study_bytes" -ge 4096 ] || [ "$total_bytes" -ge 4400000 ]; then
    echo "error: cold entries take $total_bytes bytes, the study entry $study_bytes (want < 4400000 and < 4096)" >&2
    exit 1
fi
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

# Change one byte in the middle of the study entry: the payload hash
# recomputed on load no longer matches the frame's check, so the entry is
# a corrupt miss, and the study rebuilds from its 18 unit entries without
# simulating.
flip_middle_byte "$(ls "$cache_dir"/study-*.mwcc)" || exit 1
bitflip_out=$(MWC_CACHE_DIR="$cache_dir" ./target/release/profile) || {
    echo "error: a one-byte change in the study entry broke the run instead of degrading" >&2
    exit 1
}
digest_bitflip=$(printf '%s\n' "$bitflip_out" | awk '/^study digest:/ { print $3 }')
bitflip_corrupt=$(printf '%s\n' "$bitflip_out" \
    | awk '/^cache stats:/ { for (i = 1; i <= NF; i++) if (sub("^corrupt=", "", $i)) print $i }')
bitflip_stages=$(printf '%s\n' "$bitflip_out" | awk '/^stage stats:/ { print $3, $4 }')
if [ "$digest_bitflip" != "$digest_cold" ]; then
    echo "error: rebuild after a one-byte change diverged: $digest_cold vs $digest_bitflip" >&2
    exit 1
fi
if [ "$bitflip_corrupt" != "1" ] || [ "$bitflip_stages" != "sims=0 reused=18" ]; then
    echo "error: one-byte change: corrupt=${bitflip_corrupt:-?}, ${bitflip_stages:-no stage stats} (want corrupt=1, sims=0 reused=18)" >&2
    exit 1
fi

# Change one byte in the middle of one unit entry: that frame fails its
# hash, so exactly that unit re-simulates. Having simulated, the study is
# a miss, hashed afresh to the cold digest, and its manifest re-stored.
flip_middle_byte "$(ls "$cache_dir"/unit-*.mwcc | head -n 1)" || exit 1
unitflip_out=$(MWC_CACHE_DIR="$cache_dir" ./target/release/profile) || {
    echo "error: a one-byte change in a unit entry broke the run instead of degrading" >&2
    exit 1
}
digest_unitflip=$(printf '%s\n' "$unitflip_out" | awk '/^study digest:/ { print $3 }')
unitflip_stages=$(printf '%s\n' "$unitflip_out" | awk '/^stage stats:/ { print $3, $4 }')
if [ "$digest_unitflip" != "$digest_cold" ] || [ "$unitflip_stages" != "sims=1 reused=17" ]; then
    echo "error: one-byte unit change: digest ${digest_unitflip:-?}, ${unitflip_stages:-no stage stats} (want $digest_cold, sims=1 reused=17)" >&2
    exit 1
fi

# Scribble over every entry: the next run must still succeed, count the
# corruption, and reproduce the digest by recomputing.
for f in "$cache_dir"/*.mwcc; do
    printf 'garbage' > "$f"
done
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
echo "    cold/warm digests match ($digest_cold); $total_bytes bytes of entries, the study entry $study_bytes; warm disk hits: $warm_hits; a one-byte study change rebuilt from unit entries ($bitflip_stages); a one-byte unit change re-simulated it ($unitflip_stages); corruption degraded to recompute ($corrupt_count entries)"

echo "==> incremental stage graph (one-knob change after warm capture)"
# Warm the per-unit artifact layer, then flip one unit's fault config:
# exactly that unit must re-simulate (sims=1, reused=17), and the stitched
# study must be bit-identical to a cold run of the same flipped spec.
incr_dir="target/verify-incr"
incr_cold_dir="target/verify-incr-cold"
incr_spec="target/verify-incr-spec.mwc"
rm -rf "$incr_dir" "$incr_cold_dir"
cat >"$incr_spec" <<'SPEC'
mwc-spec v1
config = snapdragon_888
seed = 2024
runs = 3
fault[Antutu CPU].seed = 7
fault[Antutu CPU].dropout = 0.05
fault[Antutu CPU].jitter = 0.01
SPEC

MWC_CACHE_DIR="$incr_dir" ./target/release/profile >/dev/null || exit 1
flip_out=$(MWC_CACHE_DIR="$incr_dir" ./target/release/profile --spec-file "$incr_spec") || exit 1
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

cold_flip_out=$(MWC_CACHE_DIR="$incr_cold_dir" ./target/release/profile --spec-file "$incr_spec") \
    || exit 1
digest_cold_flip=$(printf '%s\n' "$cold_flip_out" | awk '/^study digest:/ { print $3 }')
if [ "$digest_flip" != "$digest_cold_flip" ]; then
    echo "error: incremental study diverged from cold recompute: $digest_flip vs $digest_cold_flip" >&2
    exit 1
fi

# Starvation gate: the cap counts study entries only, so at one study
# the cold run's manifest fills it. Each later run stores its own
# manifest and evicts the previous one with the one unit entry only that
# manifest named (evictions=2), keeping the 17 unit entries both studies
# share: the flipped run and a repeat of the cold run each simulate one
# unit and reach their cold digests.
starve_dir="target/verify-starve"
rm -rf "$starve_dir"
# Run `profile` at cap 1 with arguments "$@"; fail unless it prints
# sims=1 reused=17, evictions=2 and the digest in $want_digest.
starved_run() {
    out=$(MWC_CACHE_MAX=1 MWC_CACHE_DIR="$starve_dir" ./target/release/profile "$@") || return 1
    digest=$(printf '%s\n' "$out" | awk '/^study digest:/ { print $3 }')
    stages=$(printf '%s\n' "$out" | awk '/^stage stats:/ { print $3, $4 }')
    evictions=$(printf '%s\n' "$out" \
        | awk '/^cache stats:/ { for (i = 1; i <= NF; i++) if (sub("^evictions=", "", $i)) print $i }')
    if [ "$stages" != "sims=1 reused=17" ] || [ "$evictions" != "2" ] \
        || [ "$digest" != "$want_digest" ]; then
        echo "error: under MWC_CACHE_MAX=1, profile $* printed ${stages:-no stage stats}, evictions=${evictions:-?}, digest ${digest:-?} (want sims=1 reused=17, evictions=2, digest $want_digest)" >&2
        return 1
    fi
}
MWC_CACHE_MAX=1 MWC_CACHE_DIR="$starve_dir" ./target/release/profile >/dev/null || exit 1
want_digest="$digest_cold_flip"
starved_run --spec-file "$incr_spec" || exit 1
want_digest="$pinned_digest"
starved_run || exit 1
rm -rf "$incr_dir" "$incr_cold_dir" "$incr_spec" "$starve_dir"
echo "    one-knob change: sims=$flip_sims reused=$flip_reused; digest matches cold run ($digest_flip); under MWC_CACHE_MAX=1 the flip and a repeated cold run each gave sims=1 reused=17, evictions=2 and their cold digests"

echo "==> resumable sweep gate (interrupt, then resume from the result cache)"
# A 6-point sweep over the full registry writes 6 study entries, each a
# manifest of its 18 unit entries. The cap (MWC_CACHE_MAX, default 64)
# counts study entries, so every point stays. Interrupted after
# 5 points and re-run, the sweep must replay those 5 from their manifests
# and unit entries and simulate only the sixth (soc_runs = 18 units x 1
# run), with the sweep digest of a clean uncached sweep.
sweep_dir="target/verify-sweep-cache"
rm -rf "$sweep_dir"

sweep_clean_out=$(MWC_CACHE=off ./target/release/sweep --seeds 6 --base-seed 4100) || exit 1
sweep_digest_clean=$(printf '%s\n' "$sweep_clean_out" | awk '/^sweep digest:/ { print $3 }')

MWC_CACHE_DIR="$sweep_dir" ./target/release/sweep \
    --seeds 6 --base-seed 4100 --limit 5 >/dev/null || exit 1
sweep_resume_out=$(MWC_CACHE_DIR="$sweep_dir" ./target/release/sweep \
    --seeds 6 --base-seed 4100) || exit 1
sweep_digest_resume=$(printf '%s\n' "$sweep_resume_out" | awk '/^sweep digest:/ { print $3 }')
sweep_replayed=$(printf '%s\n' "$sweep_resume_out" \
    | awk '/^sweep stats:/ { for (i = 1; i <= NF; i++) if (sub("^replayed=", "", $i)) print $i }')
sweep_soc_runs=$(printf '%s\n' "$sweep_resume_out" \
    | awk '/^sweep stats:/ { for (i = 1; i <= NF; i++) if (sub("^soc_runs=", "", $i)) print $i }')

if [ -z "$sweep_digest_clean" ] || [ -z "$sweep_digest_resume" ]; then
    echo "error: sweep passes printed no sweep digest" >&2
    exit 1
fi
if [ "$sweep_digest_resume" != "$sweep_digest_clean" ]; then
    echo "error: resumed sweep diverged: $sweep_digest_clean (uncached) vs $sweep_digest_resume (resumed)" >&2
    exit 1
fi
if [ -z "$sweep_replayed" ] || [ "$sweep_replayed" -ne 5 ]; then
    echo "error: resume replayed ${sweep_replayed:-?} points from the cache (want 5)" >&2
    exit 1
fi
if [ -z "$sweep_soc_runs" ] || [ "$sweep_soc_runs" -ne 18 ]; then
    echo "error: resume ran ${sweep_soc_runs:-?} simulations (want 18 = 1 point x 18 units)" >&2
    exit 1
fi

report_out=$(MWC_CACHE_DIR="$sweep_dir" ./target/release/report) || exit 1
if ! printf '%s\n' "$report_out" | grep -q "(6 study entries"; then
    echo "error: report did not list the 6 sweep points as study entries; output follows" >&2
    printf '%s\n' "$report_out" >&2
    exit 1
fi
report_digests=$(printf '%s\n' "$report_out" | awk '$1 ~ /^[0-9]+$/ && NF >= 5 { print $3 }' | head -n 2)
MWC_CACHE_DIR="$sweep_dir" ./target/release/report --diff $report_digests >/dev/null || {
    echo "error: report --diff of two listed digests failed ($report_digests)" >&2
    exit 1
}
rm -rf "$sweep_dir"
echo "    resume replayed $sweep_replayed points, simulated $sweep_soc_runs runs; digest matches uncached sweep ($sweep_digest_clean)"

echo "==> end-to-end benchmark gate (perfbench self-tests, then every workload at smoke length)"
# perfbench is the one harness that measures the program. Its self-tests
# run first; then a short run of all three workloads must exit 0 and
# print "correct": true on each workload's JSON line (every op checked
# against its oracle). The gate builds and runs perfbench but never edits
# it, so a library change that breaks the benchmark fails here. Below
# three seconds study_cold gathers too few samples for its p50.
cargo test -q --offline --manifest-path perfbench/Cargo.toml || exit $?
perf_out="target/verify-perfbench.txt"
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload all --seed 3 --seconds 3 >"$perf_out" || {
    echo "error: perfbench --workload all failed; output follows" >&2
    cat "$perf_out" >&2
    exit 1
}
perf_correct=$(grep -c '^{"correct": true,' "$perf_out")
if [ "$perf_correct" -ne 3 ]; then
    echo "error: perfbench printed \"correct\": true for $perf_correct of 3 workloads; output follows" >&2
    cat "$perf_out" >&2
    exit 1
fi
rm -f "$perf_out"
echo "    perfbench self-tests passed; study_cold, replay and serve_warm ran correct"

echo "==> server smoke gate (boot, paper study, load, clean drain, zero panics)"
cargo build --release -p mwc-server --bins || exit $?
server_log="target/verify-server.log"
server_events="target/verify-server-log.jsonl"
server_trace="target/verify-server-trace.json"
paper_spec="target/verify-paper-spec.mwc"
rm -f "$server_events" "$server_trace"
cat >"$paper_spec" <<'SPEC'
mwc-spec v1
config = snapdragon_888
seed = 2024
runs = 3
SPEC

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

# The server is bound inside the collector MWC_TRACE gives it, so its
# workers record the study and /metrics shows that collector's registry.
MWC_SERVER_ADDR=127.0.0.1:0 MWC_SERVER_WORKERS=2 MWC_SERVER_QUEUE=16 \
    MWC_SERVER_DEBUG_RING=64 MWC_LOG=info MWC_LOG_FILE="$server_events" \
    MWC_TRACE="$server_trace" ./target/release/mwc-server >"$server_log" 2>&1 &
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
# Telemetry neutrality: with debug-ring and wide-event logging on, the
# paper-default study is served under its pinned digest. Its 18 units x 3
# runs are the first simulations this server's collector counts.
./target/release/wrkr --addr "$server_addr" --spec-file "$paper_spec" -c 1 -n 1 >/dev/null || {
    echo "error: POST of the paper-default spec failed; server log follows" >&2
    cat "$server_log" >&2
    kill "$server_pid" 2>/dev/null
    exit 1
}
./target/release/wrkr --addr "$server_addr" --get "/study/$pinned_digest" >/dev/null || {
    echo "error: GET /study/$pinned_digest did not answer 200 after the paper POST" >&2
    kill "$server_pid" 2>/dev/null
    exit 1
}
./target/release/wrkr --addr "$server_addr" --get /metrics | grep -qx "soc_runs 54" || {
    echo "error: /metrics did not report soc_runs 54 from the bind-time collector" >&2
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
if ! grep -q '"pipeline.study"' "$server_trace"; then
    echo "error: MWC_TRACE=$server_trace holds no pipeline.study span after the drain" >&2
    exit 1
fi
rm -f "$server_log" "$server_events" "$server_trace" "$paper_spec"
echo "    served the paper study ($pinned_digest, soc_runs 54) and a smoke load on $server_addr (rolling metrics, debug ring, dash, wide events, trace), drained clean with zero panics"

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
