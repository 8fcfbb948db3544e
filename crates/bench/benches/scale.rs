//! Macrobenchmark: the million-account scale shape.
//!
//! Runs the Exchange DApp on RedBelly (unbounded mempool, no
//! superlinear pool scan — the chain that keeps a million-transaction
//! backlog alive instead of dropping it) across three geo-spread node
//! counts.
//!
//! Two shapes:
//!
//! - **smoke** (default): 10,000 accounts, 100,000 transactions — what
//!   CI's bench smoke runs (see `scripts/ci.sh`).
//! - **full** (`DIABLO_BENCH_FULL=1`): 1,000,000 accounts, 1,000,000
//!   transactions — the paper-scale push; every account signs about one
//!   transaction, so per-sender tracking and arena slots reach seven
//!   figures.
//!
//! Names encode the shape (`scale/exchange_10k/...` vs
//! `scale/exchange_1m/...`) and every result carries `items` = planned
//! transactions, so a smoke run is never compared against a full
//! baseline.

use diablo_testkit::bench::{black_box, Bench};

use diablo_chains::{Chain, ChainParams, Experiment};
use diablo_contracts::DApp;
use diablo_net::{DeploymentConfig, DeploymentKind, InstanceType};
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

const NODE_COUNTS: [usize; 3] = [10, 50, 200];

fn main() {
    let full = std::env::var("DIABLO_BENCH_FULL").map(|v| v == "1").unwrap_or(false);
    let shape = if full { FULL } else { SMOKE };
    let items = (shape.tps as u64) * shape.secs;

    let mut b = Bench::suite("scale");
    b.samples(if full { 3 } else { 5 });

    for nodes in NODE_COUNTS {
        let config =
            DeploymentConfig::spread(DeploymentKind::Consortium, nodes, InstanceType::C52xlarge);
        let mut params = ChainParams::standard(Chain::RedBelly, &config);
        params.accounts = shape.accounts;
        let name = format!("scale/{}/{}n/e2e", shape.label, nodes);
        b.bench_items(&name, items, move || {
            black_box(
                Experiment::new(
                    Chain::RedBelly,
                    DeploymentKind::Consortium,
                    traces::constant(shape.tps, shape.secs),
                )
                .with_config(config.clone())
                .with_params(params.clone())
                .with_dapp(DApp::Exchange)
                .run()
                .committed(),
            )
        });
    }

    b.finish();
}
