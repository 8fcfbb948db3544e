//! Benchmark: per-transaction tracing cost on a full simulated run.
//!
//! Measures a 10k-transaction Exchange experiment (1,000 TPS for 10
//! simulated seconds on Quorum) four ways: tracing disabled, sampled at
//! the default limit, sampled at 64, and full (`all`). The untraced
//! scenario is the hot path: a run that armed no tracer pays the test
//! of an `Option` per emission site, so `trace/exchange_10ktx/off` must
//! sit within noise of the tracing-free baseline. A sampled run adds one
//! rank and one compare per event of a non-member; `all` is the worst
//! case and pays for every trail's allocations.
//!
//! The bench harness opts into the wall clock: here we measure real CPU
//! cost, not modeled sim time. Snapshots and trace sets produced under
//! the wall clock are not deterministic and are discarded.

use diablo_testkit::bench::{black_box, Bench};

use diablo_chains::{Chain, Concurrency, ExecMode, Experiment};
use diablo_contracts::DApp;
use diablo_net::DeploymentKind;
use diablo_telemetry::trace::TraceSample;
use diablo_workloads::traces;

fn run(sample: Option<TraceSample>) -> usize {
    let mut e = Experiment::new(
        Chain::Quorum,
        DeploymentKind::Testnet,
        traces::constant(1_000.0, 10),
    )
    .with_dapp(DApp::Exchange)
    .with_exec_mode(ExecMode::Exact)
    .with_concurrency(Concurrency::Serial)
    .with_grace(20);
    if let Some(sample) = sample {
        e = e.with_trace(sample);
    }
    let result = e.run();
    // Fold the trace into the measurement sink so full tracing cannot
    // be optimized down to the untraced run.
    result.committed() as usize
        + result.trace.map_or(0, |t| t.txs.len())
}

fn main() {
    diablo_telemetry::clock::use_wall_clock();
    let mut b = Bench::suite("trace");
    b.samples(10);

    let scenarios: [(&str, Option<TraceSample>); 4] = [
        ("off", None),
        ("sampled_default", Some(TraceSample::Limit(TraceSample::DEFAULT_LIMIT))),
        ("sampled_64", Some(TraceSample::Limit(64))),
        ("all", Some(TraceSample::All)),
    ];
    for (name, sample) in scenarios {
        b.bench(&format!("trace/exchange_10ktx/{name}"), || {
            black_box(run(sample))
        });
    }

    diablo_telemetry::reset();
    b.finish();
}
