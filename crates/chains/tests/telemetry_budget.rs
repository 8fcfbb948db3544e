//! Telemetry budget of a run: the recorder is entered per tick and per
//! block, never per transaction.
//!
//! One recorder entry (`counter!`, `record!`, a closed span, …) is a
//! TLS lookup, a `RefCell` borrow, a mutex and a hash of the metric's
//! name — ~30 ns, against the ~90 ns the simulator itself spends on a
//! `model_200n` transaction. Four entries per transaction were 61% of
//! that workload's run before `ChainSim` tallied in its loops and
//! published after them; this test pins what is left. `diablo_telemetry::recorder_entries`
//! counts the calling thread's entries, and a serial run stays on the
//! thread that started it.

use diablo_chains::exec::{ExecMode, PROFILE_REFRESH};
use diablo_chains::{chaos, Chain, ChainParams, Experiment, FaultPlan, RunResult, TxStatus};
use diablo_contracts::DApp;
use diablo_net::{DeploymentConfig, DeploymentKind, InstanceType};
use diablo_workloads::traces;

/// Allowed per submission tick: the gossip histogram, the pool's depth
/// gauge and the seven counters a tick may publish (admitted, two kinds
/// of drop, rerouted, corrupted, rejected, deferred).
const PER_TICK: u64 = 9;
/// Allowed per block, empty or not: the round's consensus phases and
/// quorum traffic, the pool drain (4), the commit (4), the executor
/// and the signature/execution delays (3), the VM's call count and gas
/// under `Exact` (2), a fault counter or two.
/// The runs below measure 15 to 19.
const PER_BLOCK: u64 = 24;
/// Allowed per Profiled refresh, the one real VM call in
/// `PROFILE_REFRESH` replays of a cache entry: the refresh counter, and
/// the VM's call counter and gas histogram, which its block publishes.
const PER_REFRESH: u64 = 3;
/// Cache entries of a run, each with a refresh cycle of its own (the
/// Exchange rotates over five stocks).
const CACHE_ENTRIES: u64 = 8;
/// Allowed per run: the harness's three spans and the cost probe.
const CONST: u64 = 16;

/// Refreshes `txs` more transactions may add.
fn refreshes(txs: u64) -> u64 {
    txs / PROFILE_REFRESH + CACHE_ENTRIES
}

/// A finished run and what it cost the recorder.
struct Measured {
    entries: u64,
    txs: u64,
    ticks: u64,
    blocks: u64,
    result: RunResult,
}

impl Measured {
    fn budget(&self) -> u64 {
        PER_TICK * self.ticks + PER_BLOCK * self.blocks + PER_REFRESH * refreshes(self.txs) + CONST
    }

    fn assert_within_budget(&self, what: &str) {
        let Measured {
            entries,
            txs,
            ticks,
            blocks,
            ..
        } = self;
        if !diablo_telemetry::enabled() {
            assert_eq!(*entries, 0, "{what}: the no-op build entered a recorder");
            return;
        }
        assert!(
            *entries <= self.budget(),
            "{what}: {entries} recorder entries for {txs} transactions, {ticks} ticks and \
             {blocks} blocks (budget {})",
            self.budget()
        );
        // The budget is not vacuous: it is far below one entry per
        // transaction wherever transactions outnumber ticks and blocks.
        assert!(
            self.budget() < txs / 2,
            "{what}: budget {} vs {txs} txs",
            self.budget()
        );
    }
}

fn measure(experiment: Experiment) -> Measured {
    diablo_telemetry::thread_reset();
    let result = experiment.run();
    let entries = diablo_telemetry::recorder_entries();
    let last_us = result.records.last().map_or(0, |r| r.submitted.as_micros());
    Measured {
        entries,
        txs: result.records.len() as u64,
        ticks: last_us / 100_000 + 1,
        blocks: result.blocks.len() as u64,
        result,
    }
}

/// The benchmark's `model_200n` shape at `tps`.
fn model_200n(tps: f64) -> Experiment {
    let config = DeploymentConfig::spread(DeploymentKind::Consortium, 200, InstanceType::C52xlarge);
    let mut params = ChainParams::standard(Chain::RedBelly, &config);
    params.accounts = 10_000;
    Experiment::new(
        Chain::RedBelly,
        DeploymentKind::Consortium,
        traces::constant(tps, 20),
    )
    .with_config(config)
    .with_params(params)
    .with_dapp(DApp::Exchange)
}

#[test]
fn ten_times_the_load_enters_the_recorder_only_through_its_blocks() {
    let light = measure(model_200n(500.0));
    let heavy = measure(model_200n(5_000.0));
    light.assert_within_budget("model_200n at 500 TPS");
    heavy.assert_within_budget("model_200n at 5,000 TPS");
    assert_eq!(heavy.txs, 10 * light.txs);
    assert_eq!(heavy.ticks, light.ticks);
    if diablo_telemetry::enabled() {
        let extra_blocks = heavy.blocks.saturating_sub(light.blocks);
        let extra_refreshes = refreshes(heavy.txs - light.txs);
        assert!(
            heavy.entries
                <= light.entries + PER_BLOCK * extra_blocks + PER_REFRESH * extra_refreshes,
            "{} entries at 500 TPS, {} at 5,000 TPS with {extra_blocks} more blocks",
            light.entries,
            heavy.entries
        );
    }
}

#[test]
fn the_pool_full_drop_path_stays_within_budget() {
    // `tcp_overload`'s shape: Diem's bounded pool sheds most of 3,000 TPS.
    let run = measure(Experiment::new(
        Chain::Diem,
        DeploymentKind::Testnet,
        traces::constant(3_000.0, 20),
    ));
    let dropped = run.result.count_status(TxStatus::DroppedPoolFull);
    assert!(dropped > run.txs / 10, "only {dropped} of {} shed", run.txs);
    run.assert_within_budget("Diem at 3,000 TPS");
}

#[test]
fn exact_execution_stays_within_budget() {
    // `exec_gaming`'s shape: every Gaming call interpreted, its call
    // count and gas tallied per block (two entries per call before).
    let run = measure(
        Experiment::new(
            Chain::Quorum,
            DeploymentKind::Testnet,
            traces::constant(500.0, 20),
        )
        .with_dapp(DApp::Gaming)
        .with_exec_mode(ExecMode::Exact),
    );
    run.assert_within_budget("Exact Gaming on Quorum");
}

#[test]
fn the_fault_paths_stay_within_budget() {
    // `trace_chaos`'s faults: deferral, corruption, retries, rejections.
    let faults = [
        ("partition", "0-2/3-9@30..60"),
        ("corrupt", "5%@30..60"),
        ("retry", "3x500/10000"),
    ]
    .into_iter()
    .fold(FaultPlan::builder(), |builder, (key, value)| {
        chaos::apply_directive(builder, key, value).expect("constant fault directive")
    })
    .build();
    let run = measure(
        Experiment::new(
            Chain::Quorum,
            DeploymentKind::Testnet,
            traces::constant(1_000.0, 90),
        )
        .with_faults(faults),
    );
    run.assert_within_budget("Quorum under partition and corruption");
}
