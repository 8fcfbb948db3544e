#!/bin/sh
# Everything `diablo run` writes, in one directory, so that two builds
# can be compared byte for byte with `diff -r`:
#
#   OUT_DIR/<chain>/<workload>.results.json   --output
#   OUT_DIR/<chain>/<workload>.stat.txt       --stat (stdout)
#   OUT_DIR/<chain>/<workload>.trace.json     --trace-out
#
# for every workload spec in workloads/ (the setup-*.yaml files describe
# deployments, not workloads) on all six chains; the tracer's two other
# ends, every id a member and a single member, on one chaos run:
#
#   OUT_DIR/sample/exchange-partition.{all,1}.trace.json
#
# and one distributed run over TCP, a Primary and two Secondaries on
# loopback:
#
#   OUT_DIR/tcp/dota.results.json, dota.stat.txt, secondaries.txt
#
# (the two Secondaries' statistics lines, sorted: which one connects
# first, and so which share it gets, is up to the scheduler)
#
# Usage: scripts/outputs.sh OUT_DIR   (run from any directory; builds the
# release binary of the repository holding this script first)
#
# To compare a change with its parent: run this in a checkout of each
# into two directories, then `diff -r DIR_A DIR_B`.
set -eu
[ $# -eq 1 ] || { echo "usage: $0 OUT_DIR" >&2; exit 2; }
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --bin diablo
diablo=$(pwd)/target/release/diablo

for chain in algorand avalanche diem ethereum quorum solana; do
    mkdir -p "$out/$chain"
    for spec in workloads/*.yaml; do
        name=$(basename "$spec" .yaml)
        case $name in setup-*) continue ;; esac
        "$diablo" run --chain="$chain" --stat \
            --output="$out/$chain/$name.results.json" \
            --trace-out="$out/$chain/$name.trace.json" \
            "$spec" > "$out/$chain/$name.stat.txt"
    done
done

# The sampler's ends: `all` arms every id, `1` a single member.
mkdir -p "$out/sample"
for sample in all 1; do
    "$diablo" run --chain=quorum --trace-sample="$sample" \
        --trace-out="$out/sample/exchange-partition.$sample.trace.json" \
        workloads/exchange-partition.yaml
done

# The distributed run: the Primary binds a free port and names it on
# stderr; each Secondary's stdout is its own statistics line.
mkdir -p "$out/tcp"
log=$(mktemp)
trap 'rm -f "$log" "$log.0" "$log.1"' EXIT
"$diablo" primary --port=0 --secondaries=2 --chain=quorum --deployment=devnet --stat \
    --output="$out/tcp/dota.results.json" workloads/dota.yaml \
    > "$out/tcp/dota.stat.txt" 2> "$log" &
primary=$!
port=
for _ in $(seq 100); do
    port=$(sed -n 's/^primary listening on port \([0-9]*\).*/\1/p' "$log")
    [ -n "$port" ] && break
    sleep 0.1
done
[ -n "$port" ] || { cat "$log" >&2; kill "$primary"; exit 1; }
for si in 0 1; do
    "$diablo" secondary --primary="127.0.0.1:$port" --tag=loopback > "$log.$si" &
    eval "secondary_$si=\$!"
done
wait "$secondary_0"
wait "$secondary_1"
wait "$primary"
sort "$log.0" "$log.1" > "$out/tcp/secondaries.txt"
