//! Benchmark: telemetry hot-path cost, enabled vs compiled out.
//!
//! Measures the recording primitives (counter add, histogram record,
//! a batch through `record_all`, span enter/exit) and a
//! 10k-transaction Exchange block with
//! instrumentation live. The same binary built with
//! `RUSTFLAGS="--cfg diablo_telemetry_off"` runs the identical
//! scenarios through the no-op macros — comparing the two
//! `BENCH_telemetry.json` files gives the enabled-vs-disabled delta.
//!
//! The bench harness opts into the wall clock: here we measure real CPU
//! cost, not modeled sim time (such snapshots are not deterministic and
//! are discarded).

use diablo_testkit::bench::{black_box, Bench};

use diablo_chains::{Concurrency, ExecMode, ExecutionEngine, Payload};
use diablo_contracts::DApp;
use diablo_vm::VmFlavor;

fn main() {
    diablo_telemetry::clock::use_wall_clock();
    let mut b = Bench::suite("telemetry");
    b.samples(15);

    // Primitive hot paths, 10k operations per sample so the per-op cost
    // dominates the harness overhead.
    const OPS: u64 = 10_000;
    b.bench("record/counter_10k", || {
        for i in 0..OPS {
            diablo_telemetry::counter!("bench.telemetry.counter", i & 1);
        }
        black_box(OPS)
    });
    b.bench("record/histogram_10k", || {
        for i in 0..OPS {
            diablo_telemetry::record!("bench.telemetry.histogram", i * 37);
        }
        black_box(OPS)
    });
    // The same 10k values through one recorder entry: what is left per
    // value once the TLS lookup, the lock and the name hash are paid
    // once — the reason a run records per tick and per block.
    b.bench("record/record_all_10k", || {
        diablo_telemetry::record_all("bench.telemetry.record_all", (0..OPS).map(|i| i * 37));
        black_box(OPS)
    });
    b.bench("record/span_10k", || {
        for _ in 0..OPS {
            diablo_telemetry::span!("bench.telemetry.span");
        }
        black_box(OPS)
    });

    // Block execution with instrumentation live: a 10k-transaction
    // Exchange block (five independent conflict
    // components) through the Exact engine, serial and 4 workers.
    let payloads: Vec<Payload> = (0..10_000u64)
        .map(|seq| Payload::Invoke {
            dapp: DApp::Exchange,
            seq,
            call: None,
        })
        .collect();
    for (name, concurrency) in [
        ("serial", Concurrency::Serial),
        ("parallel4", Concurrency::Parallel(4)),
    ] {
        b.bench_batched(
            &format!("block/exchange_10ktx/{name}"),
            || {
                ExecutionEngine::with_dapp(VmFlavor::Geth, ExecMode::Exact, DApp::Exchange)
                    .expect("exchange builds on geth")
                    .with_concurrency(concurrency)
            },
            |mut e| {
                let costs = e.execute_block(&payloads);
                black_box(costs.len())
            },
        );
    }

    // Keep the recorder shards from growing across the whole run.
    diablo_telemetry::reset();
    b.finish();
}
