//! Reconciliation between the per-transaction tracer, the records and
//! the aggregate telemetry: the waterfall a fully-sampled trace draws
//! must add up to the same sim-time the phase histograms report, and
//! the counters `ChainSim` tallies per tick and per block must be the
//! ones an entry per transaction would have left — value for value and
//! bucket for bucket, present exactly when something was counted.
//!
//! Kept to a single `#[test]`, and to the checks that read the
//! telemetry snapshot: the counters and histograms are process-global,
//! so a second run on another test thread of this binary would bleed
//! into the sums compared here. The tracer is not — each run owns its
//! own — and the checks that only read `result.trace` live in
//! `tests/trace_sets.rs`, one `#[test]` each.

use std::collections::BTreeMap;

use diablo::chains::{
    Chain, ChainParams, ExecMode, Experiment, MempoolPolicy, PruneMode, RunResult, StorageConfig,
    TxStatus,
};
use diablo::contracts::DApp;
use diablo::net::{DeploymentConfig, DeploymentKind};
use diablo::sim::{LogHistogram, SimDuration};
use diablo::telemetry::trace::{TraceSample, TraceSet, TraceStage};
use diablo::telemetry::{HistogramSnapshot, TelemetrySnapshot};
use diablo::workloads::traces;

/// Runs `experiment` fully traced over a clean recorder.
fn traced(experiment: Experiment) -> (RunResult, TelemetrySnapshot) {
    diablo::telemetry::reset();
    let result = experiment.with_trace(TraceSample::All).run();
    (result, diablo::telemetry::snapshot())
}

/// The identities between one run's records, traces and telemetry, for
/// a run whose pool held at most `capacity` transactions. Returns
/// `(pool-full, per-sender, expired)` drop counts so the caller can
/// check that its scenario took the path it was built for.
fn reconcile(
    what: &str,
    result: &RunResult,
    telemetry: &TelemetrySnapshot,
    capacity: Option<usize>,
) -> (u64, u64, u64) {
    let trace = result.trace.as_ref().expect("a traced run");
    let count = |status| result.count_status(status);
    let records = result.records.len() as u64;
    assert_eq!(
        trace.txs.len() as u64,
        records,
        "{what}: not every id traced"
    );

    // One gossip delay per submission that reached a node.
    let gossip = telemetry
        .histogram("net.submit.gossip_us")
        .expect("gossip histogram");
    assert_eq!(
        gossip.count,
        records - count(TxStatus::Rejected),
        "{what}: gossip count"
    );

    // Admission: every transaction the pool took ended in one of four
    // statuses, every refusal in its own; a counter nobody bumped is
    // absent, not zero.
    let present = |n: u64| (n > 0).then_some(n);
    let admitted = count(TxStatus::Committed)
        + count(TxStatus::Failed)
        + count(TxStatus::DroppedExpired)
        + count(TxStatus::Pending);
    let (full, sender) = (
        count(TxStatus::DroppedPoolFull),
        count(TxStatus::DroppedPerSender),
    );
    assert_eq!(
        telemetry.counter("mempool.admitted"),
        present(admitted),
        "{what}"
    );
    assert_eq!(
        telemetry.counter("mempool.dropped.pool_full"),
        present(full),
        "{what}"
    );
    assert_eq!(
        telemetry.counter("mempool.dropped.per_sender"),
        present(sender),
        "{what}"
    );
    // A counter bumped by zero is present: the per-block ones are.
    assert!(
        telemetry.counter("mempool.take_batch.skipped").is_some(),
        "{what}"
    );

    // The pool's peak is the occupancy a proposer faced: at least the
    // largest block it drained, and the capacity itself once a
    // transaction was shed for want of room.
    let depth_peak = (telemetry.gauges.iter())
        .find(|(name, _)| name == "mempool.depth_peak")
        .map(|&(_, peak)| peak as usize)
        .expect("mempool.depth_peak");
    let largest = result.blocks.iter().map(|b| b.txs as usize).max();
    assert!(
        depth_peak >= largest.unwrap_or(0),
        "{what}: depth_peak {depth_peak} < largest block {largest:?}"
    );
    if full > 0 {
        assert_eq!(
            Some(depth_peak),
            capacity,
            "{what}: depth_peak of a full pool"
        );
    }

    // Queueing delay, bucket for bucket: the histogram the commit path
    // fills per block is the one the traced submit→select waits make.
    // (`default()`, as the recorder makes its histograms: its `min`
    // starts at 0 where `new()`'s starts at `u64::MAX`.)
    let mut waits = LogHistogram::default();
    for tx in &trace.txs {
        if let Some(selected) = tx.at(TraceStage::Selected) {
            waits.record(selected - tx.at(TraceStage::Submitted).expect("submitted"));
        }
    }
    assert_eq!(
        telemetry.histogram("mempool.queue_wait_us"),
        Some(&HistogramSnapshot::from_histogram(&waits)),
        "{what}: mempool.queue_wait_us is not the traced submit→select waits"
    );
    (full, sender, count(TxStatus::DroppedExpired))
}

#[test]
fn trace_waterfalls_reconcile_with_phase_histograms() {
    // Compiled-out telemetry (`--cfg diablo_telemetry_off`) records no
    // traces; there is nothing to reconcile.
    if !diablo::telemetry::enabled() {
        return;
    }
    let (result, telemetry) = traced(
        Experiment::new(
            Chain::Quorum,
            DeploymentKind::Testnet,
            traces::constant(50.0, 6),
        )
        .with_dapp(DApp::Exchange)
        .with_exec_mode(ExecMode::Exact)
        .with_storage(StorageConfig {
            prune: PruneMode::Full,
            segment_blocks: 4,
            hot_pages: 2,
        })
        .with_grace(20),
    );
    let trace = result.trace.as_ref().expect("a traced run");
    assert!(result.committed() > 0, "{}", result.summary());
    // Quorum never drops (its pool is unbounded): no `mempool.dropped.*`
    // entry at all, and the drain that skipped nothing still reports its
    // zero.
    assert_eq!(reconcile("Quorum", &result, &telemetry, None), (0, 0, 0));
    assert!(!telemetry
        .counters
        .iter()
        .any(|(name, _)| name.starts_with("mempool.dropped")));

    let mut network_mempool_us = 0u64;
    let mut consensus_of_block: BTreeMap<u64, u64> = BTreeMap::new();
    for tx in &trace.txs {
        for (name, _, dur) in TraceSet::waterfall(tx) {
            match name {
                "network" | "mempool" => network_mempool_us += dur,
                "consensus" => {
                    let block = tx.event(TraceStage::Ordered).expect("ordered").arg1;
                    consensus_of_block.insert(block, dur);
                }
                _ => {}
            }
        }
    }

    // The tracer's network+mempool time is recorded per transaction at
    // the same instant `mempool.queue_wait_us` is: the sums must agree
    // exactly, not approximately.
    let queue_wait = telemetry
        .histogram("mempool.queue_wait_us")
        .expect("queue wait histogram");
    assert_eq!(
        network_mempool_us, queue_wait.sum,
        "traced submit→select time drifted from mempool.queue_wait_us"
    );

    // `consensus.commit_latency_us` — the histogram the `--stat` phase
    // table lists under `consensus` — records one entry per block,
    // empty rounds included. This is the double-labeling guard:
    // execution time lives in the execution stage only, so the
    // commit-latency total must not absorb it; the traced consensus
    // time can fall short of it only by the empty rounds' share.
    let commit_latency = telemetry
        .histogram("consensus.commit_latency_us")
        .expect("commit latency histogram");
    assert_eq!(commit_latency.count, result.blocks.len() as u64);
    assert!(
        consensus_of_block.values().sum::<u64>() <= commit_latency.sum,
        "traced consensus time exceeds consensus.commit_latency_us"
    );

    // Diem with three signers: the per-sender cap refuses most of the
    // load before the pool can fill.
    let testnet = DeploymentConfig::standard(DeploymentKind::Testnet);
    let mut few_signers = ChainParams::standard(Chain::Diem, &testnet);
    few_signers.accounts = 3;
    let capacity = few_signers.mempool.capacity;
    let (result, telemetry) = traced(
        Experiment::new(
            Chain::Diem,
            DeploymentKind::Testnet,
            traces::constant(3_000.0, 5),
        )
        .with_params(few_signers)
        .with_grace(20),
    );
    let (_, per_sender, _) = reconcile("Diem", &result, &telemetry, capacity);
    assert!(per_sender > 0, "{}", result.summary());

    // Solana with a two-second blockhash window and a pool deep enough
    // to queue the overload, then too shallow for it: transactions
    // expire in the pool, later ones are shed at admission.
    let mut short_expiry = ChainParams::standard(Chain::Solana, &testnet);
    short_expiry.blockhash_expiry = Some(SimDuration::from_secs(2));
    short_expiry.mempool = MempoolPolicy::bounded(4_000);
    let capacity = short_expiry.mempool.capacity;
    let (result, telemetry) = traced(
        Experiment::new(
            Chain::Solana,
            DeploymentKind::Testnet,
            traces::constant(4_000.0, 8),
        )
        .with_params(short_expiry)
        .with_grace(20),
    );
    let (pool_full, _, expired) = reconcile("Solana", &result, &telemetry, capacity);
    assert!(pool_full > 0 && expired > 0, "{}", result.summary());

    // A run that submits nothing: its tick publishes nothing, not even
    // an empty gossip histogram, while its blocks still report zeros.
    diablo::telemetry::reset();
    let idle = Experiment::new(
        Chain::Quorum,
        DeploymentKind::Testnet,
        traces::constant(0.0, 2),
    )
    .run();
    let telemetry = diablo::telemetry::snapshot();
    assert!(idle.records.is_empty() && !idle.blocks.is_empty());
    assert_eq!(telemetry.counter("mempool.take_batch.skipped"), Some(0));
    assert_eq!(telemetry.counter("mempool.admitted"), None);
    assert!(telemetry.histogram("net.submit.gossip_us").is_none());
    assert!(telemetry.histogram("mempool.queue_wait_us").is_none());
}
