#!/bin/sh
# Offline CI gate: the workspace is hermetic (all deps are in-tree path
# crates), so everything below must pass from a cold registry.
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
# ledger holds on those same runs — the five that tier-1's
# tests/paper_shapes.rs leaves out included. A model change therefore
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

# Optimistic end-to-end smoke: a pinned-seed exact-mode chaos run
# through the optimistic executor must be byte-identical across worker
# counts — results and telemetry counters both (docs/EXECUTION.md §4.2).
echo "==> optimistic smoke (pinned-seed chaos run, 1 vs 8 workers byte-compared)"
opt_a="$(mktemp "${TMPDIR:-/tmp}"/diablo-opt-a.XXXXXX.json)"
opt_b="$(mktemp "${TMPDIR:-/tmp}"/diablo-opt-b.XXXXXX.json)"
cargo run -q --release --offline --bin diablo -- run --chain=quorum \
    --seed=11 --exec-mode=exact --execution=optimistic --threads=1 \
    --output="$opt_a" workloads/exchange-partition.yaml >/dev/null
cargo run -q --release --offline --bin diablo -- run --chain=quorum \
    --seed=11 --exec-mode=exact --execution=optimistic --threads=8 \
    --output="$opt_b" workloads/exchange-partition.yaml >/dev/null
cmp "$opt_a" "$opt_b" || {
    echo "optimistic smoke: worker counts produced different output" >&2
    exit 1
}
grep -qF '"optimistic.blocks"' "$opt_a" || {
    echo "optimistic smoke: optimistic.* counters missing from telemetry" >&2
    exit 1
}
rm -f "$opt_a" "$opt_b"

# Telemetry smoke: one Exchange benchmark with telemetry on must emit
# a results document whose `telemetry` section parses and carries the
# pipeline's headline counters (compare validates the JSON reader path
# on the same file).
echo "==> telemetry smoke (Exchange run, JSON telemetry section)"
tmp_json="$(mktemp "${TMPDIR:-/tmp}"/diablo-telemetry.XXXXXX.json)"
cargo run -q --release --offline --bin diablo -- run --chain=quorum \
    --output="$tmp_json" workloads/exchange-apple.yaml >/dev/null
for key in '"telemetry":{' '"counters":{' '"mempool.admitted"' \
    '"consensus.blocks.committed"' '"histograms":{' '"spans":{'; do
    grep -qF "$key" "$tmp_json" || {
        echo "telemetry smoke: missing $key in $tmp_json" >&2
        exit 1
    }
done
cargo run -q --release --offline --bin diablo -- compare "$tmp_json" "$tmp_json" >/dev/null
rm -f "$tmp_json"

# Hostile-input smoke: 200,000 nested `[` must come back from `compare`
# as a typed JSON error. The reader used to recurse once per bracket
# and die of a stack overflow (exit 134) on a deeper file.
echo "==> compare smoke (deeply nested input is a json error, {} is no results file)"
deep_json="$(mktemp "${TMPDIR:-/tmp}"/diablo-deep.XXXXXX.json)"
awk 'BEGIN { for (i = 0; i < 200000; i++) printf "["; }' >"$deep_json"
status=0
deep_err="$(cargo run -q --release --offline --bin diablo -- \
    compare "$deep_json" "$deep_json" 2>&1 >/dev/null)" || status=$?
[ "$status" -ne 0 ] && [ "$status" -ne 134 ] || {
    echo "compare smoke: exit status $status on deeply nested input" >&2
    exit 1
}
case "$deep_err" in
*"json error at byte"*) ;;
*)
    echo "compare smoke: no json error reported: $deep_err" >&2
    exit 1
    ;;
esac
# A JSON document that is no results file is refused, naming the file:
# `{}` used to compare as a table of zeros and `?`, exit 0.
printf '{}' >"$deep_json"
status=0
empty_err="$(cargo run -q --release --offline --bin diablo -- \
    compare "$deep_json" "$deep_json" 2>&1 >/dev/null)" || status=$?
rm -f "$deep_json"
case "$status:$empty_err" in
1:*"$deep_json: "*"not a results file"*) ;;
*)
    echo "compare smoke: exit status $status on {}, message: $empty_err" >&2
    exit 1
    ;;
esac

# The same door for specs: `workloads:` followed by 200,000 `[`, and
# 20,000 maps each indented one deeper (a 200 MB file), must come back
# from `run` as a parse error naming a line. yaml.rs used to recurse
# once per level and die the same death.
echo "==> spec smoke (deeply nested yaml is a parse error, not an abort)"
deep_yaml="$(mktemp "${TMPDIR:-/tmp}"/diablo-deep.XXXXXX.yaml)"
for probe in flow block; do
    if [ "$probe" = flow ]; then
        awk 'BEGIN { printf "workloads: "; for (i = 0; i < 200000; i++) printf "["; print "" }'
    else
        awk 'BEGIN { for (i = 0; i < 20000; i++) { print pad "k:"; pad = pad " " } }'
    fi >"$deep_yaml"
    status=0
    deep_err="$(cargo run -q --release --offline --bin diablo -- \
        run --chain=quorum "$deep_yaml" 2>&1 >/dev/null)" || status=$?
    [ "$status" -ne 0 ] && [ "$status" -ne 134 ] || {
        echo "spec smoke ($probe): exit status $status on deeply nested input" >&2
        exit 1
    }
    case "$deep_err" in
    *"line "[0-9]*": nesting deeper than"*) ;;
    *)
        echo "spec smoke ($probe): no line-numbered parse error: $deep_err" >&2
        exit 1
        ;;
    esac
done
rm -f "$deep_yaml"

# A fault directive's number is checked where it is parsed. A slowdown
# factor below 1 (or NaN) used to be clamped to no slowdown at all: an
# unfaulted run, exit 0, reported as faulted.
echo "==> fault-directive smoke (--slowdown=0.5@1 is refused, naming the factor)"
status=0
slow_err="$(cargo run -q --release --offline --bin diablo -- run --chain=quorum \
    --slowdown=0.5@1 workloads/native-10.yaml 2>&1 >/dev/null)" || status=$?
case "$status:$slow_err" in
1:*'factor `0.5`'*) ;;
*)
    echo "fault-directive smoke: exit status $status, message: $slow_err" >&2
    exit 1
    ;;
esac

# Numbers past the simulation clock are refused where they are read. A
# grace of 18,446,744,073,710 s wrapped the clock's u64 microseconds to
# a 0.45 s drain (exit 0), and a load key as far out died allocating
# the load curve (exit 134). The binary runs under `timeout 5`, so a
# run that starts instead of refusing fails here too (exit 124).
echo "==> clock smoke (--grace and a load key past the clock are refused, within 5 s)"
big_key="$(mktemp "${TMPDIR:-/tmp}"/diablo-big-key.XXXXXX.yaml)"
cat >"$big_key" <<'EOF'
workloads:
  - number: 1
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 10 } }
          load:
            0: 10
            18446744073710: 0
EOF
for probe in grace load; do
    if [ "$probe" = grace ]; then
        set -- --grace=18446744073710 workloads/native-10.yaml
        want="bad --grace"
    else
        set -- "$big_key"
        want="past the end of the simulation clock"
    fi
    status=0
    clock_err="$(timeout 5 ./target/release/diablo run --chain=ethereum "$@" 2>&1 >/dev/null)" \
        || status=$?
    case "$status:$clock_err" in
    1:*"$want"*) ;;
    *)
        echo "clock smoke ($probe): exit status $status, message: $clock_err" >&2
        exit 1
        ;;
    esac
done
rm -f "$big_key"

# Both Primaries make the same checks before anything runs: a spec that
# invokes two DApps is refused by `diablo primary` as by `diablo run`,
# before the Primary waits for a Secondary. It used to accept the
# Secondaries and run both DApps' calls on a native engine. The binary
# runs directly, not under `cargo run`, so the timeout reaches it.
echo "==> two-DApp smoke (run and primary refuse it alike, within 5 s)"
two_dapps="$(mktemp "${TMPDIR:-/tmp}"/diablo-two-dapps.XXXXXX.yaml)"
cat >"$two_dapps" <<'EOF'
workloads:
  - number: 2
    client:
      behavior:
        - interaction: !invoke
            from: { sample: !account { number: 10 } }
            contract: { sample: !contract { name: "nasdaq" } }
            function: "buyApple"
          load:
            0: 10
            6: 0
        - interaction: !invoke
            from: { sample: !account { number: 10 } }
            contract: { sample: !contract { name: "dota" } }
            function: "update(1, 1)"
          load:
            0: 10
            6: 0
EOF
for role in run primary; do
    if [ "$role" = run ]; then set -- run --chain=quorum; else
        set -- primary --chain=quorum --secondaries=1 --port=0; fi
    status=0
    two_err="$(timeout 5 ./target/release/diablo "$@" "$two_dapps" 2>&1 >/dev/null)" \
        || status=$?
    case "$status:$two_err" in
    1:*"one DApp per benchmark"*) ;;
    *)
        echo "two-DApp smoke ($role): exit status $status, message: $two_err" >&2
        exit 1
        ;;
    esac
done
rm -f "$two_dapps"

# A Secondary count no spec can use is refused by every Primary before
# it spawns or accepts anything: none at all, or more than the spec has
# clients. A live run spawned none and then waited to accept one, and
# `diablo primary` waited the same way (exit 124 here); a billion
# crashed `run` spawning planner threads or allocating their plans
# (exit 101 or 134), and `run --live` spawned that many processes.
echo "==> secondary-count smoke (0 and 1e9 refused by run, run --live and primary, within 5 s)"
for role in run live primary; do
    case "$role" in
    run) set -- run ;;
    live) set -- run --live ;;
    primary) set -- primary --port=0 ;;
    esac
    for n in 0 1000000000; do
        status=0
        count_err="$(timeout 5 ./target/release/diablo "$@" --secondaries="$n" \
            --chain=quorum workloads/exchange.yaml 2>&1 >/dev/null)" || status=$?
        case "$n:$status:$count_err" in
        0:1:*"at least one secondary"*) ;;
        1000000000:1:*"1000000000 secondaries for 2 clients"*) ;;
        *)
            echo "secondary-count smoke ($role, $n): exit status $status, message: $count_err" >&2
            exit 1
            ;;
        esac
    done
done

# Chaos smoke: a pinned-seed run with crash-recovery, a partition and
# message loss (flags on top of the workload's own fault: section) must
# be byte-identical across two invocations — fault injection draws all
# its randomness from the seeded simulation RNG.
echo "==> chaos smoke (pinned-seed partition run, byte-compared)"
chaos_a="$(mktemp "${TMPDIR:-/tmp}"/diablo-chaos-a.XXXXXX.json)"
chaos_b="$(mktemp "${TMPDIR:-/tmp}"/diablo-chaos-b.XXXXXX.json)"
for out in "$chaos_a" "$chaos_b"; do
    cargo run -q --release --offline --bin diablo -- run --chain=quorum \
        --seed=11 --crash=2@10..25 --loss=10%@0..40 \
        --output="$out" workloads/exchange-partition.yaml >/dev/null
done
cmp "$chaos_a" "$chaos_b" || {
    echo "chaos smoke: pinned-seed runs differ" >&2
    exit 1
}
rm -f "$chaos_a" "$chaos_b"

# Storage smoke: the staged commit pipeline (execute → merkleize →
# persist → prune, docs/STORAGE.md) must (a) report the same state root
# at every prune mode, (b) be byte-identical across worker counts with
# the store on, and (c) leave output byte-identical to the pre-store
# format when disabled.
echo "==> storage smoke (prune modes agree on roots, store output byte-compared)"
store_a="$(mktemp "${TMPDIR:-/tmp}"/diablo-store-a.XXXXXX.json)"
store_b="$(mktemp "${TMPDIR:-/tmp}"/diablo-store-b.XXXXXX.json)"
root_ref=""
for prune in full distance=3 before=20; do
    cargo run -q --release --offline --bin diablo -- run --chain=quorum \
        --seed=11 --exec-mode=exact --prune="$prune" --segment-blocks=4 \
        --output="$store_a" workloads/exchange-apple.yaml >/dev/null
    root="$(grep -o '"root":"[0-9a-f]*"' "$store_a")"
    [ -n "$root" ] || { echo "storage smoke: no root under --prune=$prune" >&2; exit 1; }
    if [ -z "$root_ref" ]; then root_ref="$root"; fi
    [ "$root" = "$root_ref" ] || {
        echo "storage smoke: --prune=$prune root differs: $root vs $root_ref" >&2
        exit 1
    }
done
cargo run -q --release --offline --bin diablo -- run --chain=quorum \
    --seed=11 --exec-mode=exact --execution=optimistic --threads=8 --store \
    --output="$store_a" workloads/exchange-apple.yaml >/dev/null
cargo run -q --release --offline --bin diablo -- run --chain=quorum \
    --seed=11 --exec-mode=exact --threads=1 --store \
    --output="$store_b" workloads/exchange-apple.yaml >/dev/null
for key in '"storage":{' '"store.blocks"'; do
    grep -qF "$key" "$store_a" || {
        echo "storage smoke: missing $key in $store_a" >&2
        exit 1
    }
done
# The storage section and store.* gauges must agree between the serial
# and the 8-worker optimistic run (full records differ only in the
# telemetry the executors themselves emit, so compare the store parts).
for pat in '"storage":{[^}]*}' '"store\.[a-z_]*":[0-9]*'; do
    a="$(grep -o "$pat" "$store_a")"; b="$(grep -o "$pat" "$store_b")"
    [ "$a" = "$b" ] || {
        echo "storage smoke: store output differs across executors" >&2
        echo "  8-worker optimistic: $a" >&2
        echo "  serial:              $b" >&2
        exit 1
    }
done
rm -f "$store_a" "$store_b"

# Trace smoke: a pinned-seed run with per-transaction tracing must
# produce byte-identical Chrome trace files across worker counts (the
# sampler membership is a pure function of seed + transaction ids, and
# the export carries only modeled-time facts), and trace-diff of a file
# against itself must align every transaction with zero delta.
echo "==> trace smoke (pinned-seed run, --trace-sample=64, 1 vs 8 workers byte-compared)"
trace_a="$(mktemp "${TMPDIR:-/tmp}"/diablo-trace-a.XXXXXX.json)"
trace_b="$(mktemp "${TMPDIR:-/tmp}"/diablo-trace-b.XXXXXX.json)"
cargo run -q --release --offline --bin diablo -- run --chain=quorum \
    --seed=11 --exec-mode=exact --threads=1 --trace-sample=64 \
    --trace-out="$trace_a" workloads/exchange-apple.yaml >/dev/null
cargo run -q --release --offline --bin diablo -- run --chain=quorum \
    --seed=11 --exec-mode=exact --threads=8 --trace-sample=64 \
    --trace-out="$trace_b" workloads/exchange-apple.yaml >/dev/null
cmp "$trace_a" "$trace_b" || {
    echo "trace smoke: worker counts produced different trace files" >&2
    exit 1
}
grep -qF '"ph":"X"' "$trace_a" || {
    echo "trace smoke: no duration events in $trace_a" >&2
    exit 1
}
cargo run -q --release --offline --bin diablo -- trace-diff "$trace_a" "$trace_b" \
    | grep -qF '(0 only in A, 0 only in B)' || {
    echo "trace smoke: trace-diff failed to align identical files" >&2
    exit 1
}
rm -f "$trace_a" "$trace_b"

# Distributed smoke: `diablo primary` and two `diablo secondary`
# processes, on a spec whose instants tie across clients and behaviours
# so that any reordering of the plan changes fates, must write the
# results JSON of `diablo run` at the same Secondary count and seed,
# byte for byte apart from the telemetry section (which also holds the
# Secondaries' planning snapshots). Every process runs under `timeout
# 10`, the port comes from the Primary's stderr, and no child may be
# left behind.
echo "==> distributed smoke (primary + 2 secondary processes = run, within 10 s)"
dist="$(mktemp -d "${TMPDIR:-/tmp}"/diablo-dist.XXXXXX)"
cat >"$dist/ties.yaml" <<'EOF'
workloads:
  - number: 5
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 3 } }
          load:
            0: 1000
            8: 0
        - interaction: !transfer
            from: { sample: !account { number: 7 } }
          load:
            0: 50
            8: 0
EOF
set -- --chain=diem --secondaries=2 --seed=5
./target/release/diablo run "$@" --output="$dist/run.json" "$dist/ties.yaml" >/dev/null
timeout 10 ./target/release/diablo primary "$@" --port=0 --output="$dist/primary.json" \
    "$dist/ties.yaml" >/dev/null 2>"$dist/primary.err" &
pids=$!
port=""
for _ in $(seq 100); do
    port="$(sed -n 's/^primary listening on port \([0-9]*\),.*/\1/p' "$dist/primary.err")"
    [ -n "$port" ] && break
    sleep 0.1
done
for tag in us-east-2 eu-north-1; do
    timeout 10 ./target/release/diablo secondary --primary=127.0.0.1:"${port:-1}" \
        --tag="$tag" >/dev/null &
    pids="$pids $!"
done
status=0
for pid in $pids; do wait "$pid" || status=$?; done
left="$(pgrep -x -P $$ 'diablo|timeout' || true)"
for f in run primary; do sed 's/,"telemetry":.*$/}/' "$dist/$f.json" >"$dist/$f.cut"; done
if [ -z "$port" ] || [ "$status" != 0 ] || [ -n "$left" ] \
    || ! cmp "$dist/run.cut" "$dist/primary.cut"; then
    echo "distributed smoke: port '$port', exit status $status, left behind '$left'" >&2
    cat "$dist/primary.err" >&2
    exit 1
fi
rm -rf "$dist"

# Live smoke: the Primary spawns two real Secondary processes over
# localhost TCP and paces the run against the wall clock (compressed
# 50× via --time-scale so the 12 s workload takes well under a second).
# The run must complete with no lost Secondaries and report a finite
# live-vs-simulation fidelity score in the liveDiff section.
echo "==> live smoke (2 Secondary processes over TCP, fidelity-diffed)"
live_json="$(mktemp "${TMPDIR:-/tmp}"/diablo-live.XXXXXX.json)"
cargo run -q --release --offline --bin diablo -- run --live --chain=quorum \
    --seed=11 --secondaries=2 --grace=2 --time-scale=50 \
    --output="$live_json" workloads/exchange.yaml >/dev/null
for key in '"liveDiff":{' '"lostSecondaries":0' '"phases":[' ; do
    grep -qF "$key" "$live_json" || {
        echo "live smoke: missing $key in $live_json" >&2
        exit 1
    }
done
fidelity="$(grep -o '"fidelity":[0-9.]*' "$live_json" | head -n1 | cut -d: -f2)"
[ -n "$fidelity" ] || {
    echo "live smoke: fidelity is not a finite number" >&2
    exit 1
}
awk "BEGIN { exit !($fidelity > 0 && $fidelity <= 1) }" || {
    echo "live smoke: fidelity $fidelity out of (0, 1]" >&2
    exit 1
}
rm -f "$live_json"

# Sim-path regression: without --live, the unified RunConfig resolution
# must leave reports byte-identical to the checked-in golden file (same
# spec, same pinned seed). This is the guard that the config redesign
# and the live plumbing never perturb the deterministic path. (The
# golden carries real histogram minima since the recorder stopped
# making histograms that start at 0: a regression there fails the cmp.)
echo "==> sim golden (pinned-seed run vs results/golden_sim_exchange.json)"
sim_json="$(mktemp "${TMPDIR:-/tmp}"/diablo-sim-golden.XXXXXX.json)"
cargo run -q --release --offline --bin diablo -- run --chain=quorum \
    --seed=11 --output="$sim_json" workloads/exchange-apple.yaml >/dev/null
cmp "$sim_json" results/golden_sim_exchange.json || {
    echo "sim golden: results JSON drifted from the golden file" >&2
    echo "  (if the change is intentional, regenerate the golden:" >&2
    echo "   diablo run --chain=quorum --seed=11 \\" >&2
    echo "       --output=results/golden_sim_exchange.json workloads/exchange-apple.yaml)" >&2
    exit 1
}
rm -f "$sim_json"

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

# Host-bench smoke: BENCHMARK.json's program on its node-count
# workload, on its state-store workload (the one that runs the
# incremental state roots over a state that grows to 30,002 entries),
# on its execution workload (60,000 Exact Gaming calls through the
# reused scratch), on its results workload (the only one whose
# iteration re-parses its own JSON and compares the emitted JSON and
# stats text across iterations) and on its tracing workload (every
# iteration arms a tracer and runs it under partition, corruption and
# retries) and on its wire workload (every iteration is a Primary and a
# Secondary over a loopback socket, 180,000 planned transactions
# streamed client by client and ordered by the Primary). Every
# iteration is verified (conservation, the
# commit rule, a fingerprint that repeats), and the last stdout line
# says whether all of them held; two seconds is enough to run the
# check, not to measure.
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
