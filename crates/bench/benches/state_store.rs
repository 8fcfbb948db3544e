//! State-store benchmark: the staged commit pipeline's overhead and
//! its two hot kernels.
//!
//! The e2e arms run the same Exchange-on-RedBelly shape as the `scale`
//! bench three ways — store off, store on in archive mode, store on
//! under distance pruning — so the pipeline's cost shows up as the
//! delta against the `off` arm rather than as an absolute number. The
//! micro arms isolate the pipeline's kernels: the binary Merkle fold
//! over sorted state entries (`trie_root`, the from-scratch oracle),
//! the same tree updated from one block's write set (`trie_apply`,
//! what the pipeline runs per block) and the flat-table increment path
//! under hot-page-cap eviction pressure.
//!
//! Two shapes:
//!
//! - **smoke** (default): 10,000 accounts, 100,000 transactions — what
//!   CI's bench smoke runs (see `scripts/ci.sh`).
//! - **full** (`DIABLO_BENCH_FULL=1`): 1,000,000 accounts, 1,000,000
//!   transactions — the acceptance shape of docs/STORAGE.md, where
//!   distance pruning is what keeps the resident set bounded.

use diablo_testkit::bench::{black_box, Bench};

use diablo_chains::{Chain, ChainParams, Experiment, PruneMode, StorageConfig};
use diablo_contracts::DApp;
use diablo_net::{DeploymentConfig, DeploymentKind, InstanceType};
use diablo_store::{trie, FlatTable, MerkleTable};
use diablo_workloads::traces;

#[derive(Clone, Copy)]
struct Shape {
    label: &'static str,
    accounts: u32,
    tps: f64,
    secs: u64,
}

const SMOKE: Shape = Shape {
    label: "exchange_10k",
    accounts: 10_000,
    tps: 5_000.0,
    secs: 20,
};

const FULL: Shape = Shape {
    label: "exchange_1m",
    accounts: 1_000_000,
    tps: 20_000.0,
    secs: 50,
};

const NODES: usize = 10;

fn e2e(shape: &Shape, storage: Option<StorageConfig>) -> u64 {
    let config =
        DeploymentConfig::spread(DeploymentKind::Consortium, NODES, InstanceType::C52xlarge);
    let mut params = ChainParams::standard(Chain::RedBelly, &config);
    params.accounts = shape.accounts;
    let mut e = Experiment::new(
        Chain::RedBelly,
        DeploymentKind::Consortium,
        traces::constant(shape.tps, shape.secs),
    )
    .with_config(config)
    .with_params(params)
    .with_dapp(DApp::Exchange);
    if let Some(cfg) = storage {
        e = e.with_storage(cfg);
    }
    e.run().committed()
}

fn main() {
    let full = std::env::var("DIABLO_BENCH_FULL").map(|v| v == "1").unwrap_or(false);
    let shape = if full { FULL } else { SMOKE };
    let items = (shape.tps as u64) * shape.secs;

    let mut b = Bench::suite("state_store");
    b.samples(if full { 3 } else { 5 });

    let arms: [(&str, Option<StorageConfig>); 3] = [
        ("off", None),
        ("full", Some(StorageConfig::default())),
        (
            "distance",
            Some(StorageConfig {
                prune: PruneMode::Distance(64),
                ..StorageConfig::default()
            }),
        ),
    ];
    for (arm, storage) in arms {
        let name = format!("state_store/{}/{}n/e2e_{}", shape.label, NODES, arm);
        b.bench_items(&name, items, move || black_box(e2e(&shape, storage)));
    }

    // Merkle fold: the root over every live state entry, from scratch.
    // The entry count tracks the shape's account pool, so smoke and
    // full runs gate separately.
    let entries: Vec<(i64, i64)> = (0..shape.accounts as i64).map(|k| (k, k * 7 + 1)).collect();
    let mut seeded = MerkleTable::new();
    seeded.apply(&entries);
    let name = format!("state_store/{}/trie_root", shape.label);
    b.bench_items(&name, shape.accounts as u64, move || {
        black_box(trie::root(&entries))
    });

    // The same tree kept up to date instead: one VideoSharing-shaped
    // block — one counter overwritten, 250 keys appended at the tail —
    // written onto the shape's entries. The cost follows the block,
    // not the state. The table starts over once it has doubled, which
    // keeps its depth within one level of the shape's.
    const BLOCK_APPENDS: i64 = 250;
    let mut table = seeded.clone();
    let mut tick = 0i64;
    let name = format!("state_store/{}/trie_apply", shape.label);
    b.bench_items(&name, BLOCK_APPENDS as u64 + 1, move || {
        if table.len() >= 2 * seeded.len() {
            table = seeded.clone();
        }
        tick += 1;
        let tail = table.entries().last().map_or(0, |&(k, _)| k + 1);
        let mut block = vec![(0, tick)];
        block.extend((0..BLOCK_APPENDS).map(|i| (tail + i, tick)));
        table.apply(&block);
        black_box(table.root())
    });

    // Flat-table increments under eviction pressure: one touch per
    // planned transaction over the shape's id space, with a hot-page
    // cap small enough that pages freeze and thaw throughout.
    let ids: u32 = shape.accounts;
    let name = format!("state_store/{}/table_touch", shape.label);
    b.bench_items(&name, items, move || {
        let mut table = FlatTable::new();
        for i in 0..items {
            table.increment(((i * 2_654_435_761) % ids as u64) as u32, 1, i / 512);
            if i % 512 == 511 {
                table.enforce_cap(2);
            }
        }
        black_box(table.digest())
    });

    b.finish();
}
