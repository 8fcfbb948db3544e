//! What a run's [`TraceSet`] must be, read from `result.trace` alone:
//! waterfalls that telescope to the record latencies, one consensus
//! duration per block, an export that does not depend on the executor,
//! a bounded sample that is a subset of the full one, and — the tracer
//! being a value each run owns — the same sets whether two runs share
//! the process one after the other or at once.
//!
//! Nothing here reads the process-global telemetry snapshot, so the
//! tests run side by side; `tests/trace_reconciliation.rs` holds the
//! checks that do.

use std::collections::BTreeMap;
use std::sync::Barrier;

use diablo::chains::{
    Chain, ChainHarness, Concurrency, ExecMode, Experiment, Payload, PlannedTx, PruneMode,
    RunResult, StorageConfig, TxStatus,
};
use diablo::contracts::DApp;
use diablo::net::DeploymentKind;
use diablo::sim::SimTime;
use diablo::telemetry::trace::{rank, TraceSample, TraceSet, TraceStage};
use diablo::workloads::traces;

fn experiment(tps: f64, secs: u64) -> Experiment {
    Experiment::new(
        Chain::Quorum,
        DeploymentKind::Testnet,
        traces::constant(tps, secs),
    )
    .with_dapp(DApp::Exchange)
    .with_exec_mode(ExecMode::Exact)
    .with_storage(StorageConfig {
        prune: PruneMode::Full,
        segment_blocks: 4,
        hot_pages: 2,
    })
    .with_grace(20)
}

fn traced_run(concurrency: Concurrency, sample: TraceSample) -> RunResult {
    experiment(50.0, 6)
        .with_concurrency(concurrency)
        .with_trace(sample)
        .run()
}

#[test]
fn waterfalls_telescope_to_the_record_latencies() {
    let result = traced_run(Concurrency::Serial, TraceSample::All);
    // Compiled-out telemetry (`--cfg diablo_telemetry_off`) records no
    // traces.
    let Some(trace) = &result.trace else {
        return;
    };
    assert!(result.committed() > 0, "{}", result.summary());

    // Full sampling traces every submitted transaction.
    assert_eq!(trace.txs.len(), result.records.len());

    // Per transaction, the waterfall telescopes — each stage starts
    // where the previous one ended — and for committed transactions the
    // stages span exactly `submitted → decided`, the same interval the
    // record-level latency statistics are computed from.
    let mut consensus_of_block: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, rec) in result.records.iter().enumerate() {
        let tx = trace.tx(i as u64).expect("fully sampled");
        let stages = TraceSet::waterfall(tx);
        for pair in stages.windows(2) {
            let (_, start, dur) = pair[0];
            let (next, next_start, _) = pair[1];
            assert_eq!(start + dur, next_start, "tx {i}: gap before {next}");
        }
        if let Some((_, _, dur)) = stages.iter().find(|(n, _, _)| *n == "consensus") {
            let block = tx.event(TraceStage::Ordered).expect("ordered").arg1;
            let prior = consensus_of_block.insert(block, *dur);
            assert!(
                prior.is_none() || prior == Some(*dur),
                "tx {i}: block {block} has two consensus durations"
            );
        }
        if rec.status == TxStatus::Committed {
            let total: u64 = stages.iter().map(|(_, _, d)| d).sum();
            let latency = rec.decided.expect("committed").since(rec.submitted);
            assert_eq!(total, latency.as_micros(), "tx {i}: waterfall != latency");
        }
    }

    // Per-block reconciliation with the commit record: the tracer sees
    // exactly the non-empty blocks (consensus rounds that committed no
    // transactions never touch a trail), each with one consensus
    // duration, and the execution stage of every tx in a block ends at
    // that block's recorded commit instant.
    let committed_at: BTreeMap<u64, u64> = result
        .blocks
        .iter()
        .map(|b| (b.height, b.committed.as_micros()))
        .collect();
    assert_eq!(
        consensus_of_block.len(),
        result.blocks.iter().filter(|b| b.txs > 0).count(),
        "traced blocks != non-empty committed blocks"
    );
    for tx in &trace.txs {
        if let Some(e) = tx.event(TraceStage::Executed) {
            let block = tx.event(TraceStage::Ordered).expect("ordered").arg1;
            assert_eq!(Some(&e.at_us), committed_at.get(&block), "tx {}", tx.id);
        }
    }
}

#[test]
fn chrome_export_is_byte_identical_across_executors() {
    // The Chrome export carries only modeled-time facts, so its bytes
    // are identical no matter which executor committed the blocks.
    let Some(serial) = traced_run(Concurrency::Serial, TraceSample::All).trace else {
        return;
    };
    let serial_json = serial.to_chrome_json();
    for concurrency in [Concurrency::Parallel(8), Concurrency::Optimistic(8)] {
        let other = traced_run(concurrency, TraceSample::All);
        let other_json = other.trace.expect("traced").to_chrome_json();
        assert_eq!(serial_json, other_json, "{concurrency:?} export differs");
    }
}

#[test]
fn a_bounded_sample_is_a_subset_of_the_full_one() {
    // Sampling is a deterministic membership function: a bounded run
    // traces a subset of the full run's transactions, with identical
    // trails for every member.
    let Some(full) = traced_run(Concurrency::Serial, TraceSample::All).trace else {
        return;
    };
    let sampled = traced_run(Concurrency::Serial, TraceSample::Limit(8));
    let sampled = sampled.trace.expect("traced");
    assert_eq!(sampled.txs.len(), 8);
    for tx in &sampled.txs {
        assert_eq!(Some(tx), full.tx(tx.id), "tx {} trail differs", tx.id);
    }
}

#[test]
fn two_runs_at_once_trace_what_they_trace_alone() {
    // Different seeds, sample sizes and lengths, so a trail that
    // crossed over could not pass for the other run's.
    let a = || {
        experiment(200.0, 10)
            .with_seed(7)
            .with_trace(TraceSample::Limit(32))
    };
    let b = || {
        experiment(150.0, 8)
            .with_seed(11)
            .with_trace(TraceSample::All)
    };
    let (alone_a, alone_b) = (a().run().trace, b().run().trace);
    if alone_a.is_none() {
        return; // tracer compiled out
    }
    // Five rounds, both threads released together each time.
    for round in 0..5 {
        let gate = Barrier::new(2);
        let (both_a, both_b) = std::thread::scope(|s| {
            let run_a = s.spawn(|| {
                gate.wait();
                a().run().trace
            });
            let run_b = s.spawn(|| {
                gate.wait();
                b().run().trace
            });
            (run_a.join().expect("run a"), run_b.join().expect("run b"))
        });
        assert_eq!(both_a, alone_a, "round {round}: seed 7, Limit(32)");
        assert_eq!(both_b, alone_b, "round {round}: seed 11, All");
    }
}

#[test]
fn a_plan_cut_short_is_sampled_over_the_ids_that_got_records() {
    // 12 s of plan against a 5 s window and no grace: ticks past 5 s
    // never fire and the tail gets no records. The tracer is armed for
    // the ids the loop will submit — the harness asserts that count
    // against `records.len()` — so the members are the bottom-`cap` of
    // exactly those ids.
    let (seed, cap) = (5, 16);
    let knobs = Experiment::new(
        Chain::Quorum,
        DeploymentKind::Testnet,
        traces::constant(100.0, 5),
    )
    .with_seed(seed)
    .with_grace(0)
    .with_trace(TraceSample::Limit(cap));
    let plan: Vec<PlannedTx> = (0..1_200u64)
        .map(|i| PlannedTx {
            at: SimTime::from_millis(i * 10),
            sender: (i % 100) as u32,
            payload: Payload::Transfer,
        })
        .collect();
    let harness = ChainHarness::new(knobs.chain, knobs.deployment, None, knobs.run).unwrap();
    let result = harness.run(plan, "cut-short", 5.0);
    let Some(trace) = &result.trace else {
        return;
    };
    // Ticks 0 ..= 50 fired, the one at exactly the deadline included:
    // everything planned before 5.1 s.
    let submitted = result.records.len() as u64;
    assert_eq!(submitted, 510);
    let mut ranked: Vec<(u64, u64)> = (0..submitted).map(|id| (rank(seed, id), id)).collect();
    ranked.sort_unstable();
    let mut members: Vec<u64> = ranked[..cap as usize].iter().map(|&(_, id)| id).collect();
    members.sort_unstable();
    let traced: Vec<u64> = trace.txs.iter().map(|t| t.id).collect();
    assert_eq!(traced, members);
    assert!(trace.txs.iter().all(|t| !t.events.is_empty()));
}
