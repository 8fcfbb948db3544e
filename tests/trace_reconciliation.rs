//! Reconciliation between the per-transaction tracer and the aggregate
//! telemetry: the waterfall a fully-sampled trace draws must add up to
//! the same sim-time the phase histograms report.
//!
//! Kept to a single `#[test]`, and to the checks that read the
//! telemetry snapshot: the counters and histograms are process-global,
//! so a second run on another test thread of this binary would bleed
//! into the sums compared here. The tracer is not — each run owns its
//! own — and the checks that only read `result.trace` live in
//! `tests/trace_sets.rs`, one `#[test]` each.

use std::collections::BTreeMap;

use diablo::chains::{Chain, ExecMode, Experiment, PruneMode, StorageConfig};
use diablo::contracts::DApp;
use diablo::net::DeploymentKind;
use diablo::telemetry::trace::{TraceSample, TraceSet, TraceStage};
use diablo::workloads::traces;

#[test]
fn trace_waterfalls_reconcile_with_phase_histograms() {
    diablo::telemetry::reset();
    let result = Experiment::new(
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
    .with_grace(20)
    .with_trace(TraceSample::All)
    .run();
    let telemetry = diablo::telemetry::snapshot();
    // Compiled-out telemetry (`--cfg diablo_telemetry_off`) records no
    // traces; there is nothing to reconcile.
    let Some(trace) = &result.trace else {
        return;
    };
    assert!(result.committed() > 0, "{}", result.summary());

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
}
