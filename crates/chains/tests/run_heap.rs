//! Heap of a run per planned transaction.
//!
//! A run keeps one record per submitted transaction and what is in
//! flight. `Experiment::run` draws its plan from the workload curve as
//! the run consumes it, and a `Vec` plan handed to `ChainHarness::run`
//! is read where it lies, so neither adds a per-transaction term of its
//! own: a materialised plan (48 bytes a `PlannedTx`) or a copy of the
//! caller's fails this test. It has a process of its own because it
//! installs a counting global allocator (`diablo_testkit::alloc`), and
//! one test, so that no other thread allocates while it measures.

use diablo_chains::{Chain, ChainHarness, Experiment, Payload, PlannedTx, RunConfig, TxRecord};
use diablo_net::DeploymentKind;
use diablo_sim::SimTime;
use diablo_testkit::alloc::{measure, Counting};
use diablo_workloads::traces;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The submission rate of both runs: light enough that Diem keeps up,
/// so the pool's in-flight set is the same at either length.
const TPS: u64 = 1_000;

/// Allowed peak heap per extra planned transaction: its record, plus
/// slack for the vectors that grow with the run's length (blocks, the
/// per-second offered load).
const PER_TX: usize = std::mem::size_of::<TxRecord>() + 8;

/// Peak heap of `run` at `short` and `long` seconds, and the number of
/// transactions the long run plans over the short one.
fn growth(run: impl Fn(u64) -> (usize, usize), short: u64, long: u64) -> (usize, usize) {
    let (short_peak, short_txs) = run(short);
    let (long_peak, long_txs) = run(long);
    assert!(long_txs > short_txs);
    (long_peak.saturating_sub(short_peak), long_txs - short_txs)
}

fn transfers(secs: u64) -> Vec<PlannedTx> {
    (0..secs * TPS)
        .map(|i| PlannedTx {
            at: SimTime::from_micros(i * 1_000_000 / TPS),
            sender: (i % 100) as u32,
            payload: Payload::Transfer,
        })
        .collect()
}

#[test]
fn a_runs_heap_grows_by_its_records_alone() {
    let experiment = |secs| {
        let curve = traces::constant(TPS as f64, secs);
        let run = Experiment::new(Chain::Diem, DeploymentKind::Testnet, curve).with_grace(10);
        let (result, cost) = measure(|| run.run());
        assert!(result.commit_ratio() > 0.99, "{}", result.summary());
        (cost.peak, result.records.len())
    };
    let (extra_heap, extra_txs) = growth(experiment, 10, 30);
    assert!(
        extra_heap <= PER_TX * extra_txs,
        "Experiment::run: {extra_heap} more bytes for {extra_txs} more transactions \
         ({} per transaction, {PER_TX} allowed)",
        extra_heap / extra_txs
    );

    let harness = |secs| {
        let plan = transfers(secs);
        let harness = ChainHarness::new(
            Chain::Diem,
            DeploymentKind::Testnet,
            None,
            RunConfig {
                grace_secs: 10,
                ..RunConfig::default()
            },
        )
        .expect("native transfers run");
        let (result, cost) = measure(|| harness.run(plan, "vec", secs as f64));
        assert!(result.commit_ratio() > 0.99, "{}", result.summary());
        (cost.peak, result.records.len())
    };
    let (extra_heap, extra_txs) = growth(harness, 10, 30);
    assert!(
        extra_heap <= PER_TX * extra_txs,
        "ChainHarness::run on a Vec: {extra_heap} more bytes for {extra_txs} more \
         transactions ({} per transaction, {PER_TX} allowed)",
        extra_heap / extra_txs
    );
}
