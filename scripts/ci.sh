#!/bin/sh
# Offline CI gate: the workspace is hermetic (all deps are in-tree path
# crates), so everything below must pass from a cold registry. Every
# check that a test can hold is a tier-1 test; this script adds only
# what tier-1 cannot run: the release and telemetry-off builds, the
# paper's tables, one 200 MB input, the docs and the host benchmark.
set -eu
cd "$(dirname "$0")/.."

echo "==> lines of Rust in crates/*/src + src (scripts/loc.sh)"
scripts/loc.sh

echo "==> cargo build --release --offline --workspace --all-targets"
cargo build --release --offline --workspace --all-targets

echo "==> tier-1 tests (debug profile)"
cargo test -q --offline

# A property's case seeds are fixed by the case number
# (crates/testkit/src/prop.rs), so this run replays every case that
# ever killed a mutant: each kill is commented at its property, case and
# mutant, and no seed needs a replay line of its own. The allocation,
# telemetry and planning budget gates run here too.
echo "==> workspace tests (release profile)"
cargo test -q --release --offline --workspace

# The paper-facing output: every results/*.txt is what `repro` prints
# today, byte for byte (the whole set is deterministic and one process
# executes each run once, ~15 s), and every predicate of the claims
# ledger holds on those same runs (tier-1's tests/paper_shapes.rs
# asserts the same predicates in the dev profile). A model change therefore
# shows up here as a diff to review: regenerate with
# `cargo run --release -p diablo-bench --bin repro -- all results/`
# (crates/bench/tests/ledger.rs keeps rows and files one to one).
#
# `repro` states its own cost on stderr at exit (wall seconds, peak RSS
# from VmHWM). The runs draw their plans instead of building them, so
# the whole reproduction peaked at 774,412 kB on a 2-core x86-64 box;
# the step fails above that plus 10%, where a plan or another
# per-transaction copy has come back.
echo "==> repro all (regenerate results/*.txt, byte-compared; peak RSS bounded)"
repro_dir="$(mktemp -d "${TMPDIR:-/tmp}"/diablo-repro.XXXXXX)"
repro_cost="$(cargo run -q --release --offline -p diablo-bench --bin repro -- all "$repro_dir" 2>&1 >/dev/null)" || {
    echo "$repro_cost" >&2
    exit 1
}
echo "$repro_cost"
for want in results/*.txt; do
    cmp "$want" "$repro_dir/$(basename "$want")" || {
        echo "repro: $want is not what \`repro $(basename "$want" .txt)\` prints" >&2
        exit 1
    }
done
rm -rf "$repro_dir"
repro_kb="$(echo "$repro_cost" | sed -n 's/^repro: .* s wall, \([0-9]*\) kB peak RSS$/\1/p')"
repro_bound_kb=$((774412 * 11 / 10))
if [ -n "$repro_kb" ] && [ "$repro_kb" -gt "$repro_bound_kb" ]; then
    echo "repro all peaked at $repro_kb kB, above $repro_bound_kb kB" >&2
    exit 1
fi
echo "==> repro assert all (every shape predicate of the ledger)"
cargo run -q --release --offline -p diablo-bench --bin repro -- assert all

# The trace recorder used to be process-global, and two unit tests that
# armed it at once took each other's recorder at eight test threads —
# never at the two a 2-core runner defaults to. Every tracer is a value
# now; run the crate's unit tests wide once so shared state cannot come
# back unseen.
echo "==> telemetry unit tests at 8 test threads"
cargo test -q --release --offline -p diablo-telemetry --lib -- --test-threads=8

# Every smoke that drives the binary is a tier-1 test: refusals are the
# rows of tests/doors.rs, runs and what they write (the golden results
# file, compare, trace-diff, chaos reruns, the store across executors,
# a Primary with two Secondary processes) the rows of tests/live_cli.rs.
# This one probe stays here: a 200 MB spec of 20,000 maps, each
# indented one deeper, must come back from `run` as a parse error
# naming a line (yaml.rs used to recurse once per level and die of a
# stack overflow, exit 134). Writing and reading it takes seconds.
echo "==> block-indented spec probe (200 MB of nested maps is a parse error)"
deep_yaml="$(mktemp "${TMPDIR:-/tmp}"/diablo-deep.XXXXXX.yaml)"
awk 'BEGIN { for (i = 0; i < 20000; i++) { print pad "k:"; pad = pad " " } }' >"$deep_yaml"
status=0
deep_err="$(./target/release/diablo run --chain=quorum "$deep_yaml" 2>&1 >/dev/null)" || status=$?
rm -f "$deep_yaml"
case "$status:$deep_err" in
1:*"line "[0-9]*": nesting deeper than"*) ;;
*)
    echo "spec probe: exit status $status, message: $deep_err" >&2
    exit 1
    ;;
esac

# Disabled-build check: with telemetry compiled out, the no-op macros
# (and the per-transaction tracer) must still type-check everywhere and
# every test must pass: the allocation, tracing and telemetry budgets
# included (the last makes no recorder entry at all here), and every
# property, so a scratch or pool that tallies nothing still runs each
# case the same. A separate target dir keeps the two configurations'
# caches apart.
echo "==> telemetry-off workspace tests (--cfg diablo_telemetry_off)"
RUSTFLAGS="--cfg diablo_telemetry_off" CARGO_TARGET_DIR=target/telemetry-off \
    cargo test -q --release --offline --workspace

echo "==> cargo doc --no-deps --offline --workspace (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Host-bench smoke: BENCHMARK.json's program on each of its six
# workloads (BENCHMARK.json says what each one exercises). Every
# iteration is verified (conservation, the commit rule, a fingerprint
# that repeats), and the last stdout line says whether all of them
# held; two seconds is enough to run the check, not to measure.
for workload in model_200n store_video exec_gaming spec_native trace_chaos tcp_overload; do
    echo "==> host-bench smoke (benchmark/ on $workload, result line must be correct)"
    cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 42 --seconds 2 --trace 0 \
        | tail -n 1 | grep -qE '"correct": ?true' || {
        echo "host-bench smoke ($workload): last stdout line does not carry \"correct\": true" >&2
        exit 1
    }
done

echo "CI OK"
