//! Holds the benchmark to `BENCHMARK.json`: every workload and metric
//! named there is emitted exactly once, under a well-formed name, and
//! the span file is what the layer table is computed from.

use std::collections::BTreeSet;
use std::sync::Mutex;

use diablo_core::json::{self, Json};
use diablo_hostbench::{metrics, result_line, run, workloads, Options, Protocol, Report};

/// Runs share the process's telemetry recorders, telemetry clock and
/// allocator counters, so they take turns.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

/// One set-up, one warm-up, one slice that ends after its first
/// iteration, one staged iteration.
const ONCE: Protocol = Protocol {
    setups: 1,
    warmups: 1,
    rounds: 1,
    staged: 1,
};

fn run_once(names: &[&str], seed: u64) -> Vec<Report> {
    let _turn = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let options = Options {
        workloads: names
            .iter()
            .map(|n| workloads::by_name(n).expect("known workload"))
            .collect(),
        seed,
        seconds: 0.0,
        trace: true,
    };
    run(&options, &ONCE)
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).expect(key)
}

fn entries<'a>(doc: &'a Json, section: &str) -> &'a [Json] {
    doc.get(section).and_then(Json::as_array).expect(section)
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .per_layer
        .iter()
        .chain(&report.end_to_end)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not emitted"))
        .value
}

#[test]
fn catalogue_matches_benchmark_json() {
    let doc = benchmark_json();
    let declared: Vec<(&str, &str)> = entries(&doc, "workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let built: Vec<(&str, &str)> = workloads::ALL.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared, built);

    let mut seen = BTreeSet::new();
    for (section, catalogue) in [
        ("end_to_end", metrics::END_TO_END),
        ("per_layer", metrics::PER_LAYER),
    ] {
        let declared: Vec<(&str, &str)> = entries(&doc, section)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        assert_eq!(declared, catalogue, "{section}");
        for (name, _) in declared {
            assert!(well_formed(name), "malformed metric name `{name}`");
            assert!(seen.insert(name), "`{name}` is listed twice");
        }
    }
    for (name, _) in built {
        assert!(well_formed(name), "malformed workload name `{name}`");
        assert!(seen.insert(name), "`{name}` is used twice");
    }
}

#[test]
fn one_iteration_of_every_workload_emits_every_metric_once() {
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    let reports = run_once(&names, 42);
    assert_eq!(reports.len(), workloads::ALL.len());

    for report in &reports {
        let name = report.workload.name;
        assert_eq!(report.failed, 0, "{name}: {:?}", report.errors);
        // Set-up warm-up, slice warm-up, one timed, one staged.
        assert_eq!(report.attempted, 4, "{name}");
        for (emitted, catalogue) in [
            (&report.end_to_end, metrics::END_TO_END),
            (&report.per_layer, metrics::PER_LAYER),
        ] {
            let emitted: Vec<(&str, &str)> = emitted.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(emitted, catalogue, "{name}");
        }
        for metric in report.end_to_end.iter().chain(&report.per_layer) {
            assert!(metric.value.is_finite(), "{name} {}", metric.name);
        }
        for metric in &report.end_to_end {
            assert!(metric.value > 0.0, "{name} {} is never 0", metric.name);
        }
        assert_eq!(value(report, "bench.iterations"), 1.0, "{name}");
        assert!(value(report, "bench.stage_coverage") >= 0.95, "{name}");

        // The span file parses, and the stage spans are non-overlapping
        // children of the iteration span.
        let spans = json::parse(&report.spans.to_json()).expect("span file parses");
        let spans = spans.as_array().expect("span array");
        let number = |span: &Json, key: &str| span.get(key).and_then(Json::as_f64).expect("number");
        let iteration = spans
            .iter()
            .position(|s| field(s, "name") == "iteration")
            .expect("iteration span");
        let mut stages: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.get("parent").and_then(Json::as_f64) == Some(iteration as f64))
            .map(|s| (number(s, "start_ns"), number(s, "end_ns")))
            .collect();
        assert!(!stages.is_empty(), "{name}");
        stages.sort_by(|a, b| a.0.total_cmp(&b.0));
        let bounds = &spans[iteration];
        assert!(stages[0].0 >= number(bounds, "start_ns"), "{name}");
        assert!(
            stages[stages.len() - 1].1 <= number(bounds, "end_ns"),
            "{name}"
        );
        for pair in stages.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "{name}: stages overlap: {pair:?}");
        }
    }

    // The layers each workload was chosen to bypass stay at zero.
    for report in &reports {
        let name = report.workload.name;
        let zero = |metric: &str| assert_eq!(value(report, metric), 0.0, "{name} {metric}");
        if name != "spec_native" {
            zero("core.output.json_ms");
            zero("core.report.stats_ms");
        }
        if name != "tcp_overload" {
            zero("core.wire.encode_ms");
            zero("core.wire.session_ms");
        }
        if name != "store_video" {
            zero("store.merkleize_ms");
            zero("store.trie_root_ms");
        }
        if name != "trace_chaos" {
            zero("telemetry.trace.overhead_ms");
        }
        if !["exec_gaming", "store_video"].contains(&name) {
            zero("chains.exec.serial_ms");
        }
    }

    // The result line carries exactly the contract's keys.
    let line = json::parse(&result_line(&reports[..1], true)).expect("result line parses");
    let Json::Object(keys) = &line else {
        panic!("result line is not an object");
    };
    let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let Some(Json::Object(traced)) = line.get("metrics") else {
        panic!("metrics is not an object");
    };
    assert_eq!(traced.len(), metrics::PER_LAYER.len());
    let line = json::parse(&result_line(&reports[..1], false)).expect("result line parses");
    let Some(Json::Object(untraced)) = line.get("metrics") else {
        panic!("metrics is not an object");
    };
    let untraced: Vec<&str> = untraced.keys().map(String::as_str).collect();
    let mut expected: Vec<&str> = metrics::END_TO_END.iter().map(|(n, _)| *n).collect();
    expected.sort_unstable();
    assert_eq!(untraced, expected);
}

#[test]
fn the_seed_decides_the_simulated_outcome_and_nothing_else() {
    let fingerprint = |seed| {
        let reports = run_once(&["trace_chaos"], seed);
        assert_eq!(reports[0].failed, 0, "{:?}", reports[0].errors);
        (
            value(&reports[0], "sim.fingerprint32"),
            value(&reports[0], "sim.blocks"),
        )
    };
    assert_eq!(fingerprint(7), fingerprint(7));
    assert_ne!(fingerprint(7).0, fingerprint(8).0);
}
