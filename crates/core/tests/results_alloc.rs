//! Allocation budget of the results path.
//!
//! Writing the results JSON is one pass to tally the records and one to
//! format them into a buffer the tally sized; reading its statistics
//! back skips the transaction array without building it. Both were once
//! proportional to the run in allocator traffic — the document's
//! `String` doubled from 3.84 MB to 7.68 MB to hold 4.1 MB, the reader
//! built a 120,000-node tree to read seven scalars. This test pins what
//! is left. It has a process of its own because it installs a counting
//! global allocator.

use diablo_chains::{Chain, FaultPlan, RunResult, TxRecord, TxStatus};
use diablo_core::json::read_result_stats;
use diablo_core::output::results_json_report;
use diablo_core::Report;
use diablo_sim::{SimDuration, SimTime};
use diablo_testkit::alloc::{measure, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Records in the measured result.
const RECORDS: usize = 100_000;

/// A run in the shape of `spec_native`'s: commits a few hundred
/// milliseconds after submission, with drops and pending records mixed
/// in so every branch of the record writer runs.
fn report() -> Report {
    let records = (0..RECORDS as u64)
        .map(|i| {
            let submitted = SimTime::from_micros(i * 1_800);
            match i % 10 {
                0 => TxRecord {
                    submitted,
                    decided: None,
                    status: TxStatus::DroppedPoolFull,
                },
                1 => TxRecord::submitted_at(submitted),
                _ => TxRecord {
                    submitted,
                    decided: Some(submitted + SimDuration::from_micros(400_000 + i % 977)),
                    status: TxStatus::Committed,
                },
            }
        })
        .collect();
    Report {
        result: RunResult {
            chain: Chain::Quorum,
            workload: "native".into(),
            workload_secs: 180.0,
            records,
            unable_reason: None,
            blocks: Vec::new(),
            storage: None,
            trace: None,
        },
        secondaries: 2,
        clients: 4,
        telemetry: diablo_telemetry::TelemetrySnapshot::default(),
        faults: FaultPlan::none(),
        lost_secondaries: Vec::new(),
        live_diff: None,
    }
}

// One test function: the counters are process-wide, and the harness
// would run two tests on two threads at once.
#[test]
fn the_results_path_allocates_per_document_not_per_record() {
    let report = report();

    let (json, cost) = measure(|| results_json_report(&report));
    assert!(json.len() > 30 * RECORDS, "{} bytes", json.len());
    assert!(
        cost.calls <= 12,
        "results_json_report: {} allocations for {RECORDS} records",
        cost.calls
    );
    assert!(
        json.capacity() <= json.len() + json.len() / 20,
        "{} bytes in a buffer of {}",
        json.len(),
        json.capacity()
    );
    // The document's buffer and the tally's latency vector, and no
    // second copy of either: the buffer never moved to grow.
    assert!(
        cost.peak <= json.capacity() + 8 * RECORDS + (64 << 10),
        "results_json_report: {} bytes live at its peak, document {}",
        cost.peak,
        json.capacity()
    );

    let (stats, cost) = measure(|| read_result_stats(&json));
    let stats = stats.expect("the writer's document parses");
    assert_eq!(stats.sent, RECORDS as u64);
    assert_eq!(stats.committed, report.result.committed());
    assert!(
        cost.bytes < 64 << 10,
        "read_result_stats: {} bytes in {} allocations to read seven scalars",
        cost.bytes,
        cost.calls
    );
}
