//! Differential tests for the staged commit pipeline: the state store
//! must report byte-identical roots and persisted state no matter how
//! the blocks were executed (serial, parallel, optimistic; any worker
//! count) and which prune mode bounded the resident set. And at the end
//! of a run the store's state root must be the from-scratch root of the
//! contract state the executors left behind.

use diablo_chains::{
    Chain, ChainHarness, ChainParams, ChainSim, Concurrency, ExecMode, Experiment, Payload,
    PlannedTx, PruneMode, RunConfig, StorageConfig, StorageReport,
};
use diablo_contracts::DApp;
use diablo_net::{DeploymentConfig, DeploymentKind, InstanceType};
use diablo_sim::SimTime;
use diablo_store::{state_root, trie};
use diablo_workloads::traces;

fn exchange_run(
    concurrency: Concurrency,
    storage: Option<StorageConfig>,
) -> diablo_chains::RunResult {
    let mut e = Experiment::new(
        Chain::Quorum,
        DeploymentKind::Testnet,
        traces::constant(50.0, 6),
    )
    .with_dapp(DApp::Exchange)
    .with_exec_mode(ExecMode::Exact)
    .with_concurrency(concurrency)
    .with_grace(20);
    if let Some(cfg) = storage {
        e = e.with_storage(cfg);
    }
    e.run()
}

fn small_store() -> StorageConfig {
    StorageConfig {
        prune: PruneMode::Full,
        segment_blocks: 4,
        hot_pages: 2,
    }
}

#[test]
fn storage_report_is_identical_across_executors() {
    let reference: StorageReport = exchange_run(Concurrency::Serial, Some(small_store()))
        .storage
        .expect("storage enabled");
    assert_eq!(reference.root_hex.len(), 64);
    assert!(reference.blocks > 0 && reference.txs > 0);

    for concurrency in [
        Concurrency::Serial,
        Concurrency::Parallel(2),
        Concurrency::Parallel(4),
        Concurrency::Parallel(8),
        Concurrency::Optimistic(2),
        Concurrency::Optimistic(4),
        Concurrency::Optimistic(8),
    ] {
        let report = exchange_run(concurrency, Some(small_store()))
            .storage
            .expect("storage enabled");
        // The whole report — roots, resident byte counts, page
        // states, entry counts — must be bit-identical: the store
        // only ever sees the canonical (serial-equivalent)
        // execution output.
        assert_eq!(report, reference, "{concurrency:?}");
    }
}

#[test]
fn all_prune_modes_report_the_same_roots() {
    let runs: Vec<(PruneMode, StorageReport)> = [
        PruneMode::Full,
        PruneMode::Distance(3),
        PruneMode::Before(10),
    ]
    .into_iter()
    .map(|prune| {
        let report = exchange_run(
            Concurrency::Serial,
            Some(StorageConfig {
                prune,
                segment_blocks: 4,
                hot_pages: 2,
            }),
        )
        .storage
        .expect("storage enabled");
        (prune, report)
    })
    .collect();
    let (_, full) = &runs[0];
    for (prune, report) in &runs[1..] {
        // Pruning drops only persisted history; it never feeds into root
        // computation.
        assert_eq!(report.root_hex, full.root_hex, "{prune}");
        assert_eq!(report.blocks, full.blocks, "{prune}");
        assert_eq!(report.txs, full.txs, "{prune}");
        assert_eq!(report.storage_entries, full.storage_entries, "{prune}");
        assert!(
            report.pruned_blocks > 0,
            "{prune} pruned nothing ({} blocks)",
            report.blocks
        );
        assert!(report.resident_blocks < full.resident_blocks, "{prune}");
    }
    assert_eq!(full.pruned_blocks, 0);
}

/// Runs `txs` on `chain` with the store on and hands back the finished
/// world: the final contract state and the store side by side.
fn simulate(
    chain: Chain,
    dapp: DApp,
    txs: Vec<PlannedTx>,
    concurrency: Concurrency,
    storage: StorageConfig,
) -> ChainSim {
    let options = RunConfig {
        exec_mode: ExecMode::Exact,
        concurrency,
        grace_secs: 20,
        storage: Some(storage),
        ..RunConfig::default()
    };
    let secs = txs
        .last()
        .map_or(0.0, |tx| tx.at.as_micros() as f64 / 1e6)
        .ceil();
    ChainHarness::new(chain, DeploymentKind::Testnet, Some(dapp), options)
        .expect("the DApp runs on this chain")
        .simulate(txs, secs)
}

/// `count` default invocations of `dapp` at `tps`.
fn plan(dapp: DApp, count: u64, tps: u64) -> Vec<PlannedTx> {
    (0..count)
        .map(|seq| PlannedTx {
            at: SimTime::from_micros(seq * 1_000_000 / tps),
            sender: (seq % 100) as u32,
            payload: Payload::Invoke {
                dapp,
                seq,
                call: None,
            },
        })
        .collect()
}

/// Asserts that the store's table and last state root are exactly what
/// a from-scratch pass over the final contract state yields.
fn assert_conserved(world: &ChainSim, context: &str) {
    let state = world.contract_state().expect("a contract is deployed");
    let store = world.store().expect("storage enabled");
    let entries = state.sorted_entries();
    assert_eq!(store.storage().entries(), &entries[..], "{context}");
    assert_eq!(
        store.report().storage_entries,
        entries.len() as u64,
        "{context}"
    );
    assert_eq!(
        store.last_state_root(),
        state_root(
            &trie::root(&entries),
            state.blob_bytes(),
            state.blob_count()
        ),
        "{context}"
    );
}

#[test]
fn final_state_root_is_conserved_for_every_executor_and_prune_mode() {
    let mut roots = Vec::new();
    for prune in [
        PruneMode::Full,
        PruneMode::Distance(3),
        PruneMode::Before(10),
    ] {
        for concurrency in [
            Concurrency::Serial,
            Concurrency::Parallel(2),
            Concurrency::Parallel(8),
            Concurrency::Optimistic(2),
            Concurrency::Optimistic(8),
        ] {
            let storage = StorageConfig {
                prune,
                segment_blocks: 4,
                hot_pages: 2,
            };
            let txs = plan(DApp::Exchange, 300, 50);
            let world = simulate(Chain::Quorum, DApp::Exchange, txs, concurrency, storage);
            assert_conserved(&world, &format!("{concurrency:?} under {prune}"));
            let store = world.store().expect("storage enabled");
            assert!(store.report().txs > 0, "nothing committed");
            roots.push((store.last_state_root(), store.chain_root()));
        }
    }
    assert!(
        roots.windows(2).all(|w| w[0] == w[1]),
        "roots differ across runs"
    );
}

#[test]
fn enabling_the_store_does_not_perturb_execution() {
    let without = exchange_run(Concurrency::Serial, None);
    let with = exchange_run(Concurrency::Serial, Some(small_store()));
    assert!(without.storage.is_none());
    assert!(with.storage.is_some());
    // The pipeline observes committed blocks; it must not change a
    // single record or block.
    assert_eq!(without.records.len(), with.records.len());
    for (a, b) in without.records.iter().zip(&with.records) {
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.decided, b.decided);
        assert_eq!(a.status, b.status);
    }
    assert_eq!(without.blocks, with.blocks);
}

#[test]
fn million_account_run_is_bounded_under_distance_pruning() {
    // The acceptance shape: Exchange on RedBelly with a million signing
    // accounts. Under `Distance` pruning the resident state must stay
    // bounded — and still report the exact root of the archive run.
    let run = |prune: PruneMode| {
        let config =
            DeploymentConfig::spread(DeploymentKind::Consortium, 10, InstanceType::C52xlarge);
        let mut params = ChainParams::standard(Chain::RedBelly, &config);
        params.accounts = 1_000_000;
        Experiment::new(
            Chain::RedBelly,
            DeploymentKind::Consortium,
            traces::constant(1_500.0, 4),
        )
        .with_config(config)
        .with_params(params)
        .with_dapp(DApp::Exchange)
        .with_grace(20)
        .with_storage(StorageConfig {
            prune,
            segment_blocks: 4,
            hot_pages: 2,
        })
        .run()
    };
    let full = run(PruneMode::Full).storage.expect("storage enabled");
    let pruned = run(PruneMode::Distance(3)).storage.expect("storage enabled");
    assert!(full.blocks > 8, "need enough blocks to prune: {}", full.blocks);
    assert_eq!(pruned.root_hex, full.root_hex);
    assert_eq!(pruned.storage_entries, full.storage_entries);
    // Residency is bounded by the prune distance (rounded up to whole
    // segments) and the hot-page cap, not by the account count.
    assert!(pruned.pruned_blocks > 0);
    assert!(
        pruned.resident_blocks <= 3 + 2 * 4,
        "resident blocks {} exceed distance + segment slack",
        pruned.resident_blocks
    );
    assert!(pruned.hot_pages <= 2, "hot pages {}", pruned.hot_pages);
    assert!(pruned.resident_bytes < full.resident_bytes);
}
