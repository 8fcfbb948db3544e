//! Heap of `diablo run` per planned transaction.
//!
//! The in-process Primary draws every client's cursor and merges them
//! as the run consumes the plan, so a run's heap grows by its records
//! and nothing else that is sized by the plan: a per-client vector, a
//! Secondary's share or a merged copy (48 bytes a `PlannedTx` each)
//! fails this test. It has a process of its own because it installs a
//! counting global allocator (`diablo_testkit::alloc`), and one test, so
//! that no other thread allocates while it measures.

use diablo_chains::{Chain, TxRecord};
use diablo_core::primary::{run_local, BenchmarkOptions};
use diablo_net::DeploymentKind;
use diablo_testkit::alloc::{measure, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `spec_native`'s shape, 4 clients x 250 TPS of transfers, for `secs`
/// seconds.
fn spec(secs: u64) -> String {
    format!(
        r#"
workloads:
  - number: 4
    client:
      view: {{ sample: !endpoint [ ".*" ] }}
      behavior:
        - interaction: !transfer
            from: {{ sample: !account {{ number: 2000 }} }}
          load:
            0: 250
            {secs}: 0
"#
    )
}

/// Allowed peak heap per extra planned transaction: its record, plus
/// slack for the vectors that grow with the run's length (blocks, the
/// per-second offered load).
const PER_TX: usize = std::mem::size_of::<TxRecord>() + 8;

/// Peak heap and planned transactions of a run of `secs` seconds.
fn run(secs: u64) -> (usize, usize) {
    let spec = spec(secs);
    let options = BenchmarkOptions::default();
    let (report, cost) = measure(|| {
        run_local(
            Chain::Quorum,
            DeploymentKind::Testnet,
            &spec,
            "native-1000",
            &options,
        )
    });
    let report = report.expect("the spec runs");
    assert!(
        report.result.commit_ratio() > 0.99,
        "{}",
        report.result.summary()
    );
    (cost.peak, report.result.records.len())
}

#[test]
fn a_local_runs_heap_grows_by_its_records_alone() {
    let (short_peak, short_txs) = run(10);
    let (long_peak, long_txs) = run(30);
    assert_eq!((short_txs, long_txs), (10_000, 30_000));
    let (extra_heap, extra_txs) = (long_peak.saturating_sub(short_peak), long_txs - short_txs);
    assert!(
        extra_heap <= PER_TX * extra_txs,
        "run_local: {extra_heap} more bytes for {extra_txs} more transactions \
         ({} per transaction, {PER_TX} allowed)",
        extra_heap / extra_txs
    );
}
