//! The report of an in-process TCP session counts everything once.
//!
//! Primary and Secondary of a `serve_primary` + `run_secondary` pair in
//! one process record into one registry. The Secondary used to send a
//! snapshot of the whole registry as "its" telemetry, which the Primary
//! merged into its own snapshot of the same registry: every counter and
//! span of the run came out doubled.
//!
//! Kept to a single `#[test]`: the recorder state is process-global and
//! scoped per run, so concurrent tests in one binary would bleed into
//! each other's snapshots.

use std::net::TcpListener;
use std::thread;

use diablo::chains::{Chain, TxStatus};
use diablo::core::primary::BenchmarkOptions;
use diablo::core::wire::{run_secondary, serve_primary};
use diablo::net::DeploymentKind;

/// 3 clients × 1,000 TPS × 10 s on Diem: past what its pool admits, so
/// admitted and submitted differ.
const SPEC: &str = r#"
workloads:
  - number: 3
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 2000 } }
          load:
            0: 1000
            10: 0
"#;

#[test]
fn in_process_session_counts_each_observation_once() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let secondary = thread::spawn(move || run_secondary(&addr, "same-process"));
    let report = serve_primary(
        &listener,
        Chain::Diem,
        DeploymentKind::Testnet,
        SPEC,
        "tcp-telemetry",
        &BenchmarkOptions::default(),
        1,
    )
    .expect("primary");
    secondary.join().expect("join").expect("secondary");

    let records = &report.result.records;
    assert_eq!(records.len(), 30_000);
    let refused = |status: TxStatus| {
        matches!(
            status,
            TxStatus::DroppedPoolFull | TxStatus::DroppedPerSender | TxStatus::Rejected
        )
    };
    let admitted = records.iter().filter(|r| !refused(r.status)).count() as u64;
    assert!(
        admitted > 0 && admitted < 30_000,
        "the spec must overload the pool: {admitted} admitted"
    );
    if !diablo::telemetry::enabled() {
        assert!(report.telemetry.is_empty());
        return;
    }
    assert_eq!(report.telemetry.counter("mempool.admitted"), Some(admitted));
    // The Secondary's own share arrives over the wire, once.
    assert_eq!(
        report.telemetry.counter("secondary.planned_txs"),
        Some(30_000)
    );
    let run = report
        .telemetry
        .spans
        .iter()
        .find(|(name, _)| name == "harness.run")
        .expect("harness.run span");
    assert_eq!(run.1.count, 1, "one run, one span");
}
