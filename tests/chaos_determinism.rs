//! The chaos determinism contract: a pinned-seed experiment combining
//! crash-recovery, a network partition, message loss and submission
//! corruption produces byte-identical results JSON at 1, 2 and 8
//! Secondaries, and repeat runs reproduce it exactly.
//!
//! Kept to a single `#[test]`: the telemetry recorder is process-global
//! and scoped per run, so concurrent tests in one binary would bleed
//! into each other's snapshots. The workload is a transfer stream —
//! transfer plans are a pure function of the global client index, so
//! re-partitioning the clients across Secondaries reproduces the exact
//! same merged plan. Eight clients at 30 TPS each give every one of
//! eight Secondaries a share.

use diablo::chains::{Chain, Concurrency, ExecMode, FaultPlan, RetryPolicy};
use diablo::core::output::results_json_with_telemetry;
use diablo::core::{run_local, BenchmarkOptions};
use diablo::net::DeploymentKind;
use diablo::sim::{SimDuration, SimTime};

const SPEC: &str = r#"
let:
  - &acc { sample: !account { number: 300 } }
workloads:
  - number: 8
    client:
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
            from: *acc
          load:
            0: 30
            60: 0
"#;

/// The full chaos menu in one plan: two nodes crash at 15 s and rejoin
/// at 30 s, the network splits 3/7 between 20 s and 35 s, consensus
/// links lose 10% of their messages for the first 40 s, submissions are
/// corrupted 20% of the time between 10 s and 50 s, and clients retry
/// twice with a 400 ms backoff.
fn chaos() -> FaultPlan {
    FaultPlan::builder()
        .crash_many(2, SimTime::from_secs(15))
        .recover_many(2, SimTime::from_secs(30))
        .partition(
            &[0, 1, 2],
            &[3, 4, 5, 6, 7, 8, 9],
            SimTime::from_secs(20),
            SimTime::from_secs(35),
        )
        .loss(0.10, SimTime::from_secs(0), SimTime::from_secs(40))
        .corrupt(0.20, SimTime::from_secs(10), SimTime::from_secs(50))
        .retry(RetryPolicy {
            attempts: 3,
            backoff: SimDuration::from_millis(400),
            timeout: SimDuration::from_secs(8),
        })
        .build()
}

fn run(secondaries: usize) -> String {
    let options = BenchmarkOptions {
        run: diablo::chains::RunOverlay {
            seed: Some(11),
            exec_mode: Some(ExecMode::Exact),
            concurrency: Some(Concurrency::Serial),
            faults: chaos(),
            ..diablo::chains::RunOverlay::none()
        },
        secondaries,
    };
    let report = run_local(
        Chain::Quorum,
        DeploymentKind::Testnet,
        SPEC,
        "chaos-transfer",
        &options,
    )
    .expect("run");
    assert_eq!(report.secondaries, secondaries);
    assert!(!report.faults.is_empty(), "the chaos plan reached the report");
    results_json_with_telemetry(&report.result, &report.telemetry)
}

#[test]
fn chaos_runs_are_identical_across_secondary_counts_and_reruns() {
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    assert_eq!(one, two, "chaos JSON differs at 2 secondaries");
    assert_eq!(one, eight, "chaos JSON differs at 8 secondaries");

    let again = run(1);
    assert_eq!(one, again, "repeat chaos run diverges");

    // The faults actually bit: the run must show client-side
    // rejections (corruption exhausting the retry budget is
    // probabilistic at 20% ^ 3, so accept rejected *or* visibly
    // degraded commits) and a sub-perfect commit ratio.
    let stats = diablo::core::json::read_result_stats(&one).expect("valid JSON");
    assert!(stats.sent > 0);
    assert!(
        (stats.committed as f64) < stats.sent as f64,
        "a 35 s outage plus corruption must cost commits: {}/{} committed",
        stats.committed,
        stats.sent
    );
}
