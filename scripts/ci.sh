#!/usr/bin/env bash
# CI entry point: tier-1 verify, clippy, rustdoc and rustfmt gates, plus
# smoke runs of the evaluation harness (sequential and with parallel
# `--jobs` workers), the daemon, the cache and the differential fuzzer.
# Fully offline; no network, no extra tools beyond cargo and its clippy and
# rustfmt components.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: build (release)"
cargo build --release --workspace

echo "==> tier-1: tests"
cargo test -q --workspace

echo "==> lint: clippy over every target, warnings are errors"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> docs: rustdoc over every crate, warnings (broken links among them) are errors"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> format: rustfmt check of the crates formatted so far"
cargo fmt --check -p sufsat-sat

echo "==> certify: every definitive answer on all 49 benchmarks x 6 eager modes (release)"
# Each Valid answer must carry a DRAT refutation that the watched-literal
# RUP checker accepts; each Invalid one a counterexample that replays.
SUFSAT_CERTIFY_FULL=1 cargo test -q --release --test cross_procedure \
    benchmark_answers_carry_checked_certificates

echo "==> determinism: EIJ and HYBRID decides repeat their trajectory in a second process"
# With the timing fields stripped, the stats line `sufsat --stats` writes
# to stderr (CNF clauses loaded, conflict clauses) must be the same in
# every process.
stats_line() {
    ./target/release/sufsat --mode "$1" --stats "benchmarks/$2.suf" 2>&1 >/dev/null \
        | grep '^; nodes=' | sed -E 's/ (translate|sat)=[^ ]*//g'
}
for bench in ooo-9d2 ooo-10d2 tv-220 dlx-16x5; do
    for mode in eij hybrid; do
        first="$(stats_line "$mode" "$bench")"
        second="$(stats_line "$mode" "$bench")"
        if [ -z "$first" ] || [ "$first" != "$second" ]; then
            echo "trajectory moved on $bench/$mode: '$first' then '$second'" >&2
            exit 1
        fi
        echo "$bench/$mode:$first"
    done
done

echo "==> smoke: threshold selection (sequential)"
./target/release/paper-eval --timeout 2 threshold

echo "==> smoke: parallel harness (2 worker threads)"
./target/release/paper-eval --timeout 2 --jobs 2 fig4

echo "==> obs: traced benchmark run + wire-schema validation"
rm -f target/ci-trace.jsonl
SUFSAT_TRACE=target/ci-trace.jsonl ./target/release/paper-eval --timeout 2 fig2
# check-trace exits non-zero on any schema drift: a record without
# ts/kind/name/thread, an unknown kind, or unbalanced span nesting.
./target/release/paper-eval check-trace target/ci-trace.jsonl
./target/release/paper-eval report target/ci-trace.jsonl \
    --stages target/ci-stages.json
# The aggregation document must carry its schema marker.
grep -q '"schema":"sufsat-stages-v1"' target/ci-stages.json

echo "==> incremental: push/pop state machine vs from-scratch decide"
cargo test -q --release --test incremental_session

echo "==> incremental: traced incremental-vs-scratch BMC + verdict equivalence"
# fig-incremental hard-errors if the persistent session and the
# from-scratch engine ever disagree on a verdict.
rm -f target/ci-incr-trace.jsonl
SUFSAT_TRACE=target/ci-incr-trace.jsonl \
    ./target/release/paper-eval --timeout 2 --csv target/ci-incr fig-incremental
./target/release/paper-eval check-trace target/ci-incr-trace.jsonl
# The CSV must cover the whole system suite (8 rows + header).
test "$(wc -l < target/ci-incr/fig-incremental.csv)" -eq 9

echo "==> perf-smoke: fig2 with and without CNF preprocessing (verdict equivalence)"
# The earlier traced fig2 run (target/ci-trace.jsonl) is the
# no-preprocessing baseline; rerun with --preprocess and hard-fail if any
# (benchmark, method) verdict differs between the two.
rm -f target/ci-pre-trace.jsonl
SUFSAT_TRACE=target/ci-pre-trace.jsonl \
    ./target/release/paper-eval --timeout 2 --preprocess fig2
# The preprocessing span/counters must pass the wire-schema check and
# appear in the stage aggregation.
./target/release/paper-eval check-trace target/ci-pre-trace.jsonl
./target/release/paper-eval report target/ci-pre-trace.jsonl \
    --stages target/ci-pre-stages.json
grep -q '"sat.preprocess"' target/ci-pre-stages.json
extract_verdicts() {
    grep '"name":"bench.result"' "$1" \
        | sed -E 's/.*"bench":"([^"]*)".*"method":"([^"]*)".*"verdict":"([^"]*)".*/\1,\2,\3/' \
        | sort
}
extract_verdicts target/ci-trace.jsonl     > target/ci-verdicts-nopre.csv
extract_verdicts target/ci-pre-trace.jsonl > target/ci-verdicts-pre.csv
# Definitive verdicts must agree pair-wise; `unknown` (a timeout under the
# 2s CI budget) is not a soundness signal and is skipped.
awk -F, '
    NR==FNR { a[$1","$2]=$3; next }
    ($1","$2 in a) && $3!="unknown" && a[$1","$2]!="unknown" && a[$1","$2]!=$3 {
        print "verdict mismatch on " $1 "/" $2 ": " a[$1","$2] " vs " $3; bad=1
    }
    END { exit bad }
' target/ci-verdicts-nopre.csv target/ci-verdicts-pre.csv

echo "==> serve: concurrency + soak battery (mixed clients, disconnects, overload)"
cargo test -q --release --test serve_session

echo "==> serve, core, obs and sat: 10 runs while two busy loops compete for the cores"
# Deadline and disconnect tests race the daemon's accounting against the
# clock (the daemon's own unit tests among them), core's single-flight
# tests race a held flight against a waiting decide, obs times its
# disabled fast path, and the solver's tests bound how soon a cancelled
# or timed-out search returns; contention for the cores brings out
# orderings an idle host rarely shows. The trap stops the busy loops
# however this stage ends.
hogs=()
trap 'kill "${hogs[@]}" 2>/dev/null || true' EXIT
for _ in 1 2; do
    ( while :; do :; done ) &
    hogs+=("$!")
done
for run in $(seq 1 10); do
    echo "--> serve_session, sufsat-core, sufsat-obs, sufsat-serve and sufsat-sat under load, run ${run} of 10"
    cargo test -q --release --test serve_session
    cargo test -q --release -p sufsat-core -p sufsat-obs -p sufsat-serve -p sufsat-sat
done
kill "${hogs[@]}"
wait "${hogs[@]}" 2>/dev/null || true
trap - EXIT

echo "==> serve: introspection battery (metrics/health/debug ops, slow log, drain flip)"
cargo test -q --release --test serve_metrics

echo "==> serve: protocol fuzzing (200 malformed frames) + corpus replay"
./target/release/sufsat-fuzz --target serve --seed 2026 --cases 200 --quiet \
    --corpus target/fuzz-corpus
for f in crates/fuzz/corpus/serve-*.hex; do
    ./target/release/sufsat-fuzz --replay-hex "$f"
done

echo "==> serve: traced 30-second load run + live /metrics scrape + wire-schema validation"
rm -f target/ci-serve-trace.jsonl
CI_METRICS_PORT=9173
./target/release/serve-bench --duration 30 --clients 4 --workers 2 \
    --metrics-addr "127.0.0.1:${CI_METRICS_PORT}" \
    --trace target/ci-serve-trace.jsonl --out target/ci-BENCH_serve.json &
BENCH_PID=$!
# Scrape the Prometheus listener mid-run (no curl in CI: bash /dev/tcp).
# The key families must be live while load is flowing.
sleep 10
exec 3<>"/dev/tcp/127.0.0.1/${CI_METRICS_PORT}"
printf 'GET /metrics HTTP/1.1\r\nHost: ci\r\n\r\n' >&3
cat <&3 > target/ci-metrics-scrape.txt
exec 3<&-
for family in sufsat_request_latency_us_bucket sufsat_queue_wait_us_bucket \
              sufsat_queue_depth sufsat_inflight sufsat_sat_conflicts; do
    if ! grep -q "$family" target/ci-metrics-scrape.txt; then
        echo "live /metrics scrape is missing family $family" >&2
        kill "$BENCH_PID" 2>/dev/null || true
        exit 1
    fi
done
wait "$BENCH_PID"
./target/release/paper-eval check-trace target/ci-serve-trace.jsonl
grep -q '"schema": "sufsat-serve-bench-v2"' target/ci-BENCH_serve.json
# v2 must report queue-wait quantiles next to the latency quantiles.
grep -q '"queue_wait_us"' target/ci-BENCH_serve.json

echo "==> cache: unit + crash-recovery battery (canonicalizer, LRU, single-flight, torn tail)"
cargo test -q --release -p sufsat-cache

echo "==> cache: kill-restart warm hit + metrics exposure"
cargo test -q --release --test serve_cache

echo "==> cache: cold/warm/fresh differential lens (200 cases)"
./target/release/sufsat-fuzz --list-procedures | grep -qx "cached"
./target/release/sufsat-fuzz --seed 2026 --cases 200 --quiet --only cached \
    --corpus target/fuzz-corpus

echo "==> cache: traced duplicate-heavy bench (zipf) + hit-rate/speedup check"
rm -f target/ci-cache-trace.jsonl
./target/release/serve-bench --zipf 1.2 --seed 7 --clients 4 --workers 4 \
    --duration 8 --trace target/ci-cache-trace.jsonl \
    --out target/ci-BENCH_cache.json --check
./target/release/paper-eval check-trace target/ci-cache-trace.jsonl
grep -q '"schema": "sufsat-cache-bench-v1"' target/ci-BENCH_cache.json
# The trace must actually carry cache traffic, not just pass the schema.
grep -q '"name":"cache.hit"' target/ci-cache-trace.jsonl
grep -q '"name":"cache.insert"' target/ci-cache-trace.jsonl
# The earlier live /metrics scrape must expose the cache families too
# (they render unconditionally, zeros included, so absence is a bug).
for family in sufsat_cache_hits_total sufsat_cache_misses_total \
              sufsat_cache_coalesced_total sufsat_cache_entries \
              sufsat_cache_bytes sufsat_cache_hit_latency_us_bucket; do
    if ! grep -q "$family" target/ci-metrics-scrape.txt; then
        echo "live /metrics scrape is missing cache family $family" >&2
        exit 1
    fi
done

echo "==> smoke: differential fuzzing (fixed seed, certified answers)"
# The panel must include the preprocessing lens (BVE + model
# reconstruction differentially checked against the other ten members).
./target/release/sufsat-fuzz --list-procedures | grep -qx "eager:preprocess"
./target/release/sufsat-fuzz --seed 2026 --cases 200 --quiet \
    --corpus target/fuzz-corpus

echo "==> ci.sh: all checks passed"
