//! End-to-end telemetry surface: one Exchange run, validated through
//! both user-facing outputs — the `telemetry` section of the results
//! JSON and the per-phase latency breakdown of `--stat`.
//!
//! Kept to a single `#[test]`: the recorder state is process-global and
//! scoped per run, so concurrent tests in one binary would bleed into
//! each other's snapshots.

use diablo::chains::{Chain, Concurrency, ExecMode};
use diablo::core::json::{parse, Json};
use diablo::core::output::results_json_with_telemetry;
use diablo::core::{run_local, BenchmarkOptions};
use diablo::net::DeploymentKind;

const SPEC: &str = r#"
let:
  - &acc { sample: !account { number: 100 } }
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
            0: 25
            10: 0
        - interaction: !invoke
            from: *acc
            contract: *dapp
            function: "buyAmazon"
          load:
            0: 25
            10: 0
"#;

#[test]
fn json_and_stat_outputs_carry_the_telemetry_pipeline() {
    let options = BenchmarkOptions {
        run: diablo::chains::RunOverlay {
            seed: Some(11),
            exec_mode: Some(ExecMode::Exact),
            concurrency: Some(Concurrency::Parallel(4)),
            ..diablo::chains::RunOverlay::none()
        },
        ..BenchmarkOptions::default()
    };
    // Clique models a distinct execution stage, so all four phases of
    // the breakdown table (mempool, consensus, execution, network) have
    // rows; chains like Algorand fold execution into the consensus λ
    // budget and legitimately skip the execution phase.
    let report = run_local(
        Chain::Ethereum,
        DeploymentKind::Testnet,
        SPEC,
        "exchange-e2e",
        &options,
    )
    .expect("run");
    assert!(report.result.committed() > 0, "{}", report.result.summary());

    let stats = report.stats_text();
    assert!(stats.contains("latency p95"), "missing tail latency: {stats}");

    if !diablo::telemetry::enabled() {
        // Compiled-out build: the JSON must simply omit the section.
        let json = results_json_with_telemetry(&report.result, &report.telemetry);
        assert!(!json.contains("\"telemetry\""));
        return;
    }

    // --stat: the per-phase table is present and ordered by phase.
    assert!(
        stats.contains("per-phase latency breakdown"),
        "missing breakdown table:\n{stats}"
    );
    for phase in ["mempool", "consensus", "execution", "network"] {
        assert!(stats.contains(phase), "phase `{phase}` missing:\n{stats}");
    }

    // JSON: a parseable document whose telemetry section has all four
    // kinds, with the keys the pipeline is expected to populate.
    let json = results_json_with_telemetry(&report.result, &report.telemetry);
    let doc = parse(&json).expect("valid json");
    let telemetry = doc.get("telemetry").expect("telemetry section");
    let counters = telemetry.get("counters").expect("counters object");
    for key in [
        "mempool.admitted",
        "consensus.blocks.committed",
        "parallel.plan.blocks",
        "vm.prepared.calls",
    ] {
        let n = counters
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("counter `{key}` missing in {json}"));
        assert!(n > 0.0, "counter `{key}` is zero");
    }
    let histograms = telemetry.get("histograms").expect("histograms object");
    for key in [
        "mempool.queue_wait_us",
        "consensus.commit_latency_us",
        "exec.block.txs",
    ] {
        let h = histograms
            .get(key)
            .unwrap_or_else(|| panic!("histogram `{key}` missing"));
        // Each histogram serializes count/sum/min/max plus quantiles.
        for field in ["count", "sum", "min", "max", "p50", "p95", "p99"] {
            assert!(
                h.get(field).and_then(Json::as_f64).is_some(),
                "histogram `{key}` lacks `{field}`"
            );
        }
    }
    // Spans: the run splits at the end of the 10 s workload into the
    // submission phase and the default 60 s drain window.
    let spans = telemetry.get("spans").expect("spans section");
    let span_secs = |path: &str| {
        let span = spans.get(path).unwrap_or_else(|| panic!("span `{path}` missing"));
        span.get("inclusive_us").and_then(Json::as_f64).expect("inclusive_us") / 1e6
    };
    assert_eq!(span_secs("harness.run;harness.submission"), 10.0);
    assert_eq!(span_secs("harness.run;harness.drain"), 60.0);
}
