#!/bin/sh
# Offline CI gate: the workspace is hermetic (all deps are in-tree path
# crates), so everything below must pass from a cold registry.
set -eu
cd "$(dirname "$0")/.."

echo "==> lines of Rust in crates/*/src + src (scripts/loc.sh)"
scripts/loc.sh

echo "==> cargo build --release --offline --workspace --all-targets"
cargo build --release --offline --workspace --all-targets

echo "==> cargo test -q --offline (tier-1)"
cargo test -q --offline

echo "==> cargo test -q --release --offline --workspace"
cargo test -q --release --offline --workspace

# The paper-facing output: every results/*.txt is what `repro` prints
# today, byte for byte (the whole set is deterministic and one process
# executes each run once, ~15 s), and every predicate of the claims
# ledger holds on those same runs — the five that tier-1's
# tests/paper_shapes.rs leaves out included. A model change therefore
# shows up here as a diff to review: regenerate with
# `cargo run --release -p diablo-bench --bin repro -- all results/`
# (crates/bench/tests/ledger.rs keeps rows and files one to one).
echo "==> repro all (regenerate results/*.txt, byte-compared)"
repro_dir="$(mktemp -d /tmp/diablo-repro.XXXXXX)"
cargo run -q --release --offline -p diablo-bench --bin repro -- all "$repro_dir" >/dev/null
for want in results/*.txt; do
    cmp "$want" "$repro_dir/$(basename "$want")" || {
        echo "repro: $want is not what \`repro $(basename "$want" .txt)\` prints" >&2
        exit 1
    }
done
rm -rf "$repro_dir"
echo "==> repro assert all (every shape predicate of the ledger)"
cargo run -q --release --offline -p diablo-bench --bin repro -- assert all

# Prepared execution in a reused scratch: replay one pinned case of the
# metered-vs-prepared differential suite. Seed 0x13 is a call sequence
# that fails when the journal or events clear of `execute_prepared_in`
# is removed; the unseeded workspace run above sweeps the full
# randomized case set.
echo "==> prepared differential replay (pinned seed: one scratch, many calls)"
DIABLO_PROP_SEED=0x13 \
    cargo test -q --release --offline -p diablo-vm --test vm_prepared_differential

# The fast path's stack bounds and fused stream, on the directed cases
# the uniform generator misses. Each seed is the case that failed while
# the change was mutation-checked: `grow` one short, `need` reading one
# slot for `Dup(n)`, a fused `Add` reporting its `Load`'s pc (the fused
# runs), and the stack buffer allowed one word past MAX_STACK (the push
# runs). The telemetry-off block below replays them too.
prepared_replays() {
    for case in \
        0xc9fe069d1f6ef645:fused_runs_agree_at_their_stack_and_overflow_edges \
        0xce484042f096d01c:fused_runs_agree_at_their_stack_and_overflow_edges \
        0xca5cc073f8d0654:fused_runs_agree_at_their_stack_and_overflow_edges \
        0x50d8b4eaa688fd1a:push_runs_meet_max_stack_across_block_boundaries; do
        echo "    DIABLO_PROP_SEED=${case%%:*} ${case#*:}"
        DIABLO_PROP_SEED="${case%%:*}" cargo test -q --offline "$@" \
            -p diablo-vm --test vm_prepared_differential "${case#*:}"
    done
}
echo "==> prepared fast-path replays (pinned seeds: stack bounds, fused runs)"
prepared_replays --release

# The mempool's slots against a plain `VecDeque<TxMeta>` model: random
# admit / drain / release / evict interleavings under unbounded,
# bounded and per-sender policies. Each seed is a case that failed while
# the pool was mutation-checked: skipped entries spliced back in reverse
# and a skipped entry freeing its sender's cap (0xc9fe069d1f6ef645), an
# evicted slot never put back on the free list (0x83ec3fefd347df57). The
# telemetry-off block below replays them too.
mempool_replays() {
    for seed in 0xc9fe069d1f6ef645 0x83ec3fefd347df57; do
        echo "    DIABLO_PROP_SEED=$seed"
        DIABLO_PROP_SEED="$seed" cargo test -q --offline "$@" -p diablo-chains --lib \
            mempool::tests::the_pool_matches_a_plain_queue_model
    done
}
echo "==> mempool model replays (pinned seeds: splice order, sender caps, slot reuse)"
mempool_replays --release

# The results plane (one tally, the fixed-point record writer, the
# skipping reader) against the multi-pass, `{:.6}` and tree-building
# code it replaced, kept as the oracle in the test. Each seed is a case
# that failed while the change was mutation-checked: an integer
# microsecond sum for the average latency, a histogram fed the integer
# latency, fixed point past 2^52, a skipped number left unchecked. The
# unseeded workspace run above sweeps the full randomized case set.
echo "==> results-plane differential replays (pinned seeds)"
for seed in 0x45f480ec9f91520a 0xcad1b6baefab2b95 0xc9fe069d1f6ef645 0x7a2fe0758f3f2772; do
    echo "    DIABLO_PROP_SEED=$seed"
    DIABLO_PROP_SEED="$seed" \
        cargo test -q --release --offline -p diablo-core --test results_plane
done

# The tracer (membership decided when the run is armed) against the
# streaming bottom-k recorder it replaced, kept as the oracle in the
# test. The seed is the case that failed while the change was
# mutation-checked: emit's threshold compare made strict. The unseeded
# workspace run above sweeps the full randomized case set.
echo "==> tracer differential replay (pinned seed)"
DIABLO_PROP_SEED=0xc9fe069d1f6ef645 \
    cargo test -q --release --offline -p diablo-telemetry --test trace_oracle

# The Primary's direct `Plan` decoder against `decode` +
# `wire_to_planned` on damaged frames. The seeds are the cases that
# failed while decode_plan_frame was mutation-checked: the length check
# before the entries removed, the loop one entry short. The unseeded
# workspace run above sweeps the full randomized case set.
echo "==> wire differential replays (pinned seeds)"
for seed in 0x5c3fe047b914202b 0xadbe0d5c9d0867c6; do
    echo "    DIABLO_PROP_SEED=$seed"
    DIABLO_PROP_SEED="$seed" \
        cargo test -q --release --offline -p diablo-core --test wire_properties
done

# The one plan order: clients' triggers and Primaries' shares, split
# into natural runs and merged, must be the stable sort of their
# concatenation, with origins that are a permutation of it. The seed is
# the case that failed while the merge was mutation-checked: the
# tie-break made to prefer the later run, and a run boundary placed one
# entry late. The unseeded workspace run above sweeps the full
# randomized case set.
echo "==> plan-order replay (pinned seed)"
DIABLO_PROP_SEED=0xc9fe069d1f6ef645 \
    cargo test -q --release --offline -p diablo-core --lib \
    abstraction::tests::the_plan_is_the_stable_sort_of_its_runs

# The wire session's deterministic gate, in place of a timing: peak live
# bytes per planned transaction of one in-process session, a MAX_FRAME
# length prefix that must allocate nothing, and TCP_NODELAY on both
# ends.
echo "==> wire allocation gate (peak bytes per planned transaction, nodelay)"
cargo test -q --release --offline -p diablo-core --test wire_alloc

# The telemetry budget, the same kind of gate for the recorder: a run
# enters it per tick and per block, never per transaction (it did four
# times per transaction, two thirds of `model_200n`'s iteration). Its
# Exact arm holds the VM to that too: a scratch tallies its calls and
# gas, and its owner publishes them per block (two entries per call
# before).
echo "==> telemetry budget gate (recorder entries per tick and per block)"
cargo test -q --release --offline -p diablo-chains --test telemetry_budget

# A Profiled cache hit is one probe: its key comes from the call's
# shape (`calls::shape_for*`), the table both `CallSpec` builders are
# written on. Release-mode runs of the three things that hold that: the
# shapes against builders spelled out literally, the slot cache against
# a resolve-and-hash oracle (same costs, same hit and refresh counts,
# four flavors), and the allocation gate whose Profiled arm allows a
# 1,000-hit block the per-block constant (~1,000 and ~2,000 allocator
# calls before). `plan_alloc` is the same kind of gate for planning: 96
# bytes allocated per planned transaction, 237 before.
echo "==> profiled-hit gates (call shapes, slot cache vs hashed oracle, allocation budgets)"
cargo test -q --release --offline -p diablo-contracts --lib calls::
cargo test -q --release --offline -p diablo-chains --lib exec::tests::profiled
cargo test -q --release --offline -p diablo-chains --test alloc_budget
cargo test -q --release --offline -p diablo-core --test plan_alloc

# The trace recorder used to be process-global, and two unit tests that
# armed it at once took each other's recorder at eight test threads —
# never at the two a 2-core runner defaults to. Every tracer is a value
# now; run the crate's unit tests wide once so shared state cannot come
# back unseen.
echo "==> telemetry unit tests at 8 test threads"
cargo test -q --release --offline -p diablo-telemetry --lib -- --test-threads=8

# Deterministic parallel execution: replay the serial-vs-parallel
# differential properties under pinned seeds. Each seed pins one
# flavor / DApp / thread-count case — together they cover 2, 4 and 8
# workers — while the unseeded workspace run above sweeps the full
# randomized case set.
echo "==> parallel differential replays (pinned seeds: 2/4/8 workers)"
for seed in 0xd1ab70 0xb10c5 0x7; do
    echo "    DIABLO_PROP_SEED=$seed"
    DIABLO_PROP_SEED="$seed" \
        cargo test -q --release --offline -p diablo-chains --test parallel_differential
done

# Optimistic (Block-STM-style) execution: the same pinned-seed replay
# discipline over the optimistic differential suite, which also covers
# the Zipfian hot-account workload the static scheduler serializes.
# The unseeded workspace run above sweeps the full randomized case set;
# bit-identity against the serial reference is asserted here and in
# parallel_differential, nowhere else.
echo "==> optimistic differential replays (pinned seeds: 2/4/8 workers)"
for seed in 0xd1ab70 0xb10c5 0x7; do
    echo "    DIABLO_PROP_SEED=$seed"
    DIABLO_PROP_SEED="$seed" \
        cargo test -q --release --offline -p diablo-chains --test optimistic_differential
done

# Optimistic end-to-end smoke: a pinned-seed exact-mode chaos run
# through the optimistic executor must be byte-identical across worker
# counts — results and telemetry counters both (docs/EXECUTION.md §4.2).
echo "==> optimistic smoke (pinned-seed chaos run, 1 vs 8 workers byte-compared)"
opt_a="$(mktemp /tmp/diablo-opt-a.XXXXXX.json)"
opt_b="$(mktemp /tmp/diablo-opt-b.XXXXXX.json)"
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
tmp_json="$(mktemp /tmp/diablo-telemetry.XXXXXX.json)"
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
echo "==> compare smoke (deeply nested input is a json error, not an abort)"
deep_json="$(mktemp /tmp/diablo-deep.XXXXXX.json)"
awk 'BEGIN { for (i = 0; i < 200000; i++) printf "["; }' >"$deep_json"
status=0
deep_err="$(cargo run -q --release --offline --bin diablo -- \
    compare "$deep_json" "$deep_json" 2>&1 >/dev/null)" || status=$?
rm -f "$deep_json"
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

# The same door for specs: `workloads:` followed by 200,000 `[`, and
# 20,000 maps each indented one deeper (a 200 MB file), must come back
# from `run` as a parse error naming a line. yaml.rs used to recurse
# once per level and die the same death.
echo "==> spec smoke (deeply nested yaml is a parse error, not an abort)"
deep_yaml="$(mktemp /tmp/diablo-deep.XXXXXX.yaml)"
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

# Both Primaries make the same checks before anything runs: a spec that
# invokes two DApps is refused by `diablo primary` as by `diablo run`,
# before the Primary waits for a Secondary. It used to accept the
# Secondaries and run both DApps' calls on a native engine. The binary
# runs directly, not under `cargo run`, so the timeout reaches it.
echo "==> two-DApp smoke (run and primary refuse it alike, within 5 s)"
two_dapps="$(mktemp /tmp/diablo-two-dapps.XXXXXX.yaml)"
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

# No Secondaries at all is refused by every Primary before it spawns or
# accepts anything. A live run spawned none and then waited to accept
# one, and `diablo primary` waited the same way (exit 124 here).
echo "==> zero-secondaries smoke (run --live and primary refuse it, within 5 s)"
for role in live primary; do
    if [ "$role" = live ]; then set -- run --live; else
        set -- primary --port=0; fi
    status=0
    zero_err="$(timeout 5 ./target/release/diablo "$@" --secondaries=0 --chain=quorum \
        workloads/exchange.yaml 2>&1 >/dev/null)" || status=$?
    case "$status:$zero_err" in
    1:*"at least one secondary"*) ;;
    *)
        echo "zero-secondaries smoke ($role): exit status $status, message: $zero_err" >&2
        exit 1
        ;;
    esac
done

# Chaos smoke: a pinned-seed run with crash-recovery, a partition and
# message loss (flags on top of the workload's own fault: section) must
# be byte-identical across two invocations — fault injection draws all
# its randomness from the seeded simulation RNG.
echo "==> chaos smoke (pinned-seed partition run, byte-compared)"
chaos_a="$(mktemp /tmp/diablo-chaos-a.XXXXXX.json)"
chaos_b="$(mktemp /tmp/diablo-chaos-b.XXXXXX.json)"
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
store_a="$(mktemp /tmp/diablo-store-a.XXXXXX.json)"
store_b="$(mktemp /tmp/diablo-store-b.XXXXXX.json)"
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
trace_a="$(mktemp /tmp/diablo-trace-a.XXXXXX.json)"
trace_b="$(mktemp /tmp/diablo-trace-b.XXXXXX.json)"
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

# Live smoke: the Primary spawns two real Secondary processes over
# localhost TCP and paces the run against the wall clock (compressed
# 50× via --time-scale so the 12 s workload takes well under a second).
# The run must complete with no lost Secondaries and report a finite
# live-vs-simulation fidelity score in the liveDiff section.
echo "==> live smoke (2 Secondary processes over TCP, fidelity-diffed)"
live_json="$(mktemp /tmp/diablo-live.XXXXXX.json)"
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
sim_json="$(mktemp /tmp/diablo-sim-golden.XXXXXX.json)"
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
# tier-1 must pass. A separate target dir keeps the two configurations'
# caches apart.
echo "==> telemetry-off build + tier-1 (--cfg diablo_telemetry_off)"
RUSTFLAGS="--cfg diablo_telemetry_off" CARGO_TARGET_DIR=target/telemetry-off \
    cargo test -q --offline
# The allocation budgets of serial execution must hold without the
# recorder too (the workspace run above checks them with telemetry on):
# Exact's per-call vectors, and a Profiled hit that allocates nothing
# and so cannot be pulling the recorder in.
RUSTFLAGS="--cfg diablo_telemetry_off" CARGO_TARGET_DIR=target/telemetry-off \
    cargo test -q --offline -p diablo-chains --test alloc_budget
# So must the budget of the results path: the document's one buffer and
# a reader that builds nothing for the transaction array.
RUSTFLAGS="--cfg diablo_telemetry_off" CARGO_TARGET_DIR=target/telemetry-off \
    cargo test -q --offline -p diablo-core --test results_alloc
# And the wire session's peak per planned transaction.
RUSTFLAGS="--cfg diablo_telemetry_off" CARGO_TARGET_DIR=target/telemetry-off \
    cargo test -q --offline -p diablo-core --test wire_alloc
# And the budget of tracing: a run asked to trace allocates exactly what
# its untraced twin does when the tracer is compiled out.
RUSTFLAGS="--cfg diablo_telemetry_off" CARGO_TARGET_DIR=target/telemetry-off \
    cargo test -q --offline -p diablo-chains --test trace_alloc_budget
# And planning's bytes per planned transaction.
RUSTFLAGS="--cfg diablo_telemetry_off" CARGO_TARGET_DIR=target/telemetry-off \
    cargo test -q --offline -p diablo-core --test plan_alloc
# And the slot cache against its oracle (costs only: no counters here).
RUSTFLAGS="--cfg diablo_telemetry_off" CARGO_TARGET_DIR=target/telemetry-off \
    cargo test -q --offline -p diablo-chains --lib exec::tests::profiled
# And the telemetry budget: without the recorder a run makes no entry,
# its Exact arm included.
RUSTFLAGS="--cfg diablo_telemetry_off" CARGO_TARGET_DIR=target/telemetry-off \
    cargo test -q --offline -p diablo-chains --test telemetry_budget
# And the fast path's pinned replays: a scratch that tallies nothing
# must still run every call the same. So must the pool's.
(
    export RUSTFLAGS="--cfg diablo_telemetry_off" CARGO_TARGET_DIR=target/telemetry-off
    prepared_replays
    mempool_replays
)

echo "==> cargo doc --no-deps --offline --workspace (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Bench smoke: every bench binary must run end to end. Two samples per
# benchmark keeps this to seconds; it guards the harness wiring, not
# the numbers (the five suites left time what no BENCHMARK.json row
# does and assert nothing of their own).
echo "==> cargo bench --offline (smoke, DIABLO_BENCH_SAMPLES=2)"
# Absolute path: bench binaries run with their package directory as
# cwd, so a relative DIABLO_BENCH_JSON would scatter per-crate.
bench_json="${DIABLO_BENCH_JSON:-$(pwd)/target/bench-smoke}"
DIABLO_BENCH_SAMPLES=2 DIABLO_BENCH_JSON="$bench_json" \
    cargo bench -q --offline --workspace

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
