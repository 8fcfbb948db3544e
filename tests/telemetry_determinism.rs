//! The telemetry determinism contract: a pinned-seed run produces the
//! same merged snapshot — and byte-identical JSON — no matter how many
//! execution workers the engine uses, and repeat runs reproduce it
//! exactly.
//!
//! Kept to a single `#[test]`: the recorder state is process-global and
//! scoped per run, so concurrent tests in one binary would bleed into
//! each other's snapshots.

use diablo::chains::{Chain, Concurrency, ExecMode};
use diablo::core::output::results_json_with_telemetry;
use diablo::core::{run_local, BenchmarkOptions};
use diablo::net::DeploymentKind;

/// An Exchange workload spread over several stocks so committed blocks
/// decompose into multiple conflict components (buys of different
/// stocks touch disjoint supplies) — the case where a parallel schedule
/// actually differs from the serial one.
const SPEC: &str = r#"
let:
  - &acc { sample: !account { number: 120 } }
  - &dapp { sample: !contract { name: "nasdaq" } }
workloads:
  - number: 2
    client:
      behavior:
        - interaction: !invoke
            from: *acc
            contract: *dapp
            function: "buyApple"
          load:
            0: 30
            10: 0
        - interaction: !invoke
            from: *acc
            contract: *dapp
            function: "buyGoogle"
          load:
            0: 20
            10: 0
        - interaction: !invoke
            from: *acc
            contract: *dapp
            function: "buyMicrosoft"
          load:
            0: 10
            10: 0
"#;

fn run(concurrency: Concurrency) -> (String, diablo::telemetry::TelemetrySnapshot) {
    let options = BenchmarkOptions {
        run: diablo::chains::RunOverlay {
            seed: Some(7),
            exec_mode: Some(ExecMode::Exact),
            concurrency: Some(concurrency),
            ..diablo::chains::RunOverlay::none()
        },
        ..BenchmarkOptions::default()
    };
    let report = run_local(
        Chain::Quorum,
        DeploymentKind::Testnet,
        SPEC,
        "exchange-telemetry",
        &options,
    )
    .expect("run");
    let json = results_json_with_telemetry(&report.result, &report.telemetry);
    (json, report.telemetry)
}

#[test]
fn snapshots_are_identical_across_worker_counts_and_reruns() {
    let (serial_json, serial) = run(Concurrency::Serial);
    let (par2_json, par2) = run(Concurrency::Parallel(2));
    let (par8_json, par8) = run(Concurrency::Parallel(8));

    // The snapshot is a pure function of (spec, seed, chain): conflict
    // plans, gas, per-phase timings all come from sim-time, never from
    // the worker schedule.
    assert_eq!(serial, par2, "Serial vs Parallel(2) snapshots diverge");
    assert_eq!(serial, par8, "Serial vs Parallel(8) snapshots diverge");
    assert_eq!(serial_json, par2_json, "JSON differs at 2 workers");
    assert_eq!(serial_json, par8_json, "JSON differs at 8 workers");

    // The optimistic executor's own counters differ from the serial
    // run's, but not with its worker count.
    let (opt1_json, opt1) = run(Concurrency::Optimistic(1));
    let (opt8_json, opt8) = run(Concurrency::Optimistic(8));
    assert_eq!(opt1, opt8, "Optimistic(1) vs Optimistic(8) snapshots diverge");
    assert_eq!(opt1_json, opt8_json, "optimistic JSON differs at 8 workers");

    // Repeat runs with the pinned seed are byte-identical.
    let (again_json, again) = run(Concurrency::Serial);
    assert_eq!(serial, again, "repeat run snapshot diverges");
    assert_eq!(serial_json, again_json, "repeat run JSON diverges");

    // With telemetry compiled in, the run must actually have recorded
    // the pipeline: committed blocks, planned conflict components and
    // VM executions. (Under --cfg diablo_telemetry_off the snapshot is
    // empty and only the equalities above are meaningful.)
    if diablo::telemetry::enabled() {
        assert!(!serial.is_empty(), "enabled build produced no telemetry");
        assert!(
            serial.counter("consensus.blocks.committed").unwrap_or(0) > 0,
            "no committed blocks recorded"
        );
        assert!(
            serial.counter("parallel.plan.blocks").unwrap_or(0) > 0,
            "no conflict plans recorded — plannable blocks never analysed"
        );
        assert!(
            serial.counter("parallel.plan.components").unwrap_or(0) > 0,
            "multi-stock blocks should decompose into components"
        );
        assert!(
            serial.histogram("mempool.queue_wait_us").is_some(),
            "mempool queue-wait histogram missing"
        );
        assert!(
            opt1.counter("optimistic.blocks").unwrap_or(0) > 0,
            "no optimistic.* counters recorded"
        );
        assert!(
            serial_json.contains("\"telemetry\":{"),
            "JSON lacks the telemetry section"
        );
    }
}
