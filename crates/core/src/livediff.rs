//! `live-diff`: fidelity comparison of a live (wall-clock) run against
//! the deterministic simulation of the same resolved configuration.
//!
//! A live run (`--live`) pays real costs — thread-pool signature
//! verification, socket latency, scheduler jitter — where the
//! simulation charges modeled ones. Both runs record the *same*
//! telemetry keys, so the per-phase latency histograms align by name
//! exactly like `trace-diff` aligns transactions by id. The diff
//! reports, per pipeline phase, the live-vs-simulated median cost, and
//! collapses the whole comparison into one **fidelity score**:
//!
//! ```text
//! fidelity = exp(−mean(|ln(live/sim)|))
//! ```
//!
//! over every matched phase median plus the throughput and mean-latency
//! ratios. A perfect match scores 1.0; each factor-of-e disagreement
//! (in either direction) costs one e-fold. Ratios are ε-guarded so the
//! score is always finite, even over empty histograms.

use std::collections::BTreeMap;

use diablo_chains::Tally;

use crate::json::{parse_members, Json};
use crate::report::{phase_of, Report};
use crate::tracediff::StageDiff;

/// One run's comparable shape: the scalar stats plus every per-phase
/// time histogram, keyed by metric name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSummary {
    /// Average committed throughput, tx/s.
    pub throughput: f64,
    /// Average commit latency, seconds.
    pub latency: f64,
    /// `metric name → (phase, observation count, p50 µs)` for every
    /// `*_us` histogram belonging to a pipeline phase.
    pub phases: BTreeMap<String, (&'static str, u64, u64)>,
}

/// The live-vs-simulated delta of one phase metric.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelta {
    /// Pipeline phase (mempool, consensus, execution, network, storage).
    pub phase: &'static str,
    /// The histogram name both runs recorded.
    pub metric: String,
    /// Observations in the live run.
    pub live_count: u64,
    /// Observations in the simulated run.
    pub sim_count: u64,
    /// Live median, µs.
    pub live_p50_us: u64,
    /// Simulated median, µs.
    pub sim_p50_us: u64,
    /// ε-guarded `live/sim` median ratio (1.0 = perfect agreement).
    pub ratio: f64,
}

/// The full fidelity report of a live run against its simulation twin.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveDiff {
    /// Per-metric deltas, in phase order then name order.
    pub phases: Vec<PhaseDelta>,
    /// Live average throughput, tx/s.
    pub live_throughput: f64,
    /// Simulated average throughput, tx/s.
    pub sim_throughput: f64,
    /// Live average commit latency, seconds.
    pub live_latency: f64,
    /// Simulated average commit latency, seconds.
    pub sim_latency: f64,
    /// Per-stage lifecycle deltas when both runs traced transactions
    /// (the `trace-diff` machinery over the two runs' trace sets);
    /// empty when tracing was off.
    pub trace_stages: Vec<StageDiff>,
    /// The collapsed fidelity score in `(0, 1]`; always finite.
    pub fidelity: f64,
}

/// Extracts the comparable shape of an in-memory report.
pub fn summarize(report: &Report) -> RunSummary {
    let mut phases = BTreeMap::new();
    for (name, h) in &report.telemetry.histograms {
        if !name.ends_with("_us") {
            continue;
        }
        if let Some((_, phase)) = phase_of(name) {
            phases.insert(name.clone(), (phase, h.count, h.quantile(0.50)));
        }
    }
    let tally = Tally::new(&report.result);
    RunSummary {
        throughput: tally.avg_throughput(),
        latency: tally.latency_avg_secs(),
        phases,
    }
}

/// Extracts the comparable shape of a results JSON file (the
/// `live-diff` subcommand's input): the `stats` section plus the
/// summarized `telemetry.histograms`.
pub fn summarize_json(text: &str) -> Result<RunSummary, String> {
    let doc = parse_members(text, &["stats", "telemetry"]).map_err(|e| e.to_string())?;
    let stats = doc
        .get("stats")
        .ok_or("not a results file: no stats section")?;
    let number = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let mut summary = RunSummary {
        throughput: number("avgThroughput"),
        latency: number("avgLatency"),
        phases: BTreeMap::new(),
    };
    if let Some(Json::Object(histograms)) = doc
        .get("telemetry")
        .and_then(|t| t.get("histograms"))
    {
        for (name, h) in histograms {
            if !name.ends_with("_us") {
                continue;
            }
            if let Some((_, phase)) = phase_of(name) {
                let field = |key: &str| h.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                summary
                    .phases
                    .insert(name.clone(), (phase, field("count"), field("p50")));
            }
        }
    }
    Ok(summary)
}

/// The ε-guarded ratio of two nonnegative quantities: finite and
/// positive even when either side is zero.
fn guarded_ratio(live: f64, sim: f64, epsilon: f64) -> f64 {
    (live + epsilon) / (sim + epsilon)
}

/// Diffs a live run's summary against its simulation twin's.
pub fn diff(live: &RunSummary, sim: &RunSummary) -> LiveDiff {
    diff_with_traces(live, sim, Vec::new())
}

/// [`diff`], attaching per-stage trace deltas computed by the caller
/// (`tracediff::diff` over the two runs' trace sets).
pub fn diff_with_traces(
    live: &RunSummary,
    sim: &RunSummary,
    trace_stages: Vec<StageDiff>,
) -> LiveDiff {
    let mut phases = Vec::new();
    let mut log_errors: Vec<f64> = Vec::new();
    for (metric, &(phase, live_count, live_p50)) in &live.phases {
        let Some(&(_, sim_count, sim_p50)) = sim.phases.get(metric) else {
            continue; // live-only metrics (live.* keys) have no twin
        };
        // One µs of slack: empty or sub-µs histograms compare as equal
        // instead of blowing the ratio up.
        let ratio = guarded_ratio(live_p50 as f64, sim_p50 as f64, 1.0);
        log_errors.push(ratio.ln().abs());
        phases.push(PhaseDelta {
            phase,
            metric: metric.clone(),
            live_count,
            sim_count,
            live_p50_us: live_p50,
            sim_p50_us: sim_p50,
            ratio,
        });
    }
    // Phase order (mempool → consensus → execution → network → storage),
    // then metric name, matching the report's phase-breakdown table.
    phases.sort_by_key(|d| {
        (
            phase_of(&d.metric).map(|(rank, _)| rank).unwrap_or(usize::MAX),
            d.metric.clone(),
        )
    });

    let throughput_ratio = guarded_ratio(live.throughput, sim.throughput, 1e-3);
    let latency_ratio = guarded_ratio(live.latency, sim.latency, 1e-3);
    log_errors.push(throughput_ratio.ln().abs());
    log_errors.push(latency_ratio.ln().abs());
    let mean_log_error = log_errors.iter().sum::<f64>() / log_errors.len() as f64;
    let fidelity = (-mean_log_error).exp();

    LiveDiff {
        phases,
        live_throughput: live.throughput,
        sim_throughput: sim.throughput,
        live_latency: live.latency,
        sim_latency: sim.latency,
        trace_stages,
        fidelity: if fidelity.is_finite() { fidelity } else { 0.0 },
    }
}

/// Parses and diffs two results JSON files (the `live-diff`
/// subcommand).
pub fn diff_texts(live: &str, sim: &str) -> Result<LiveDiff, String> {
    Ok(diff(&summarize_json(live)?, &summarize_json(sim)?))
}

/// Renders a diff as the `live-diff` subcommand's report.
pub fn render(d: &LiveDiff) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "live-diff: fidelity {:.4} (1.0 = the live run matches its simulation twin)",
        d.fidelity
    );
    let _ = writeln!(
        out,
        "throughput: live {:.1} tx/s vs sim {:.1} tx/s; \
         latency: live {:.2} s vs sim {:.2} s",
        d.live_throughput, d.sim_throughput, d.live_latency, d.sim_latency
    );
    if d.phases.is_empty() {
        let _ = writeln!(out, "(no per-phase telemetry in common)");
        return out;
    }
    let _ = writeln!(
        out,
        "{:<10} {:<34} {:>12} {:>12} {:>8}",
        "phase", "metric", "live p50", "sim p50", "ratio"
    );
    for p in &d.phases {
        let _ = writeln!(
            out,
            "{:<10} {:<34} {:>12} {:>12} {:>8.3}",
            p.phase, p.metric, p.live_p50_us, p.sim_p50_us, p.ratio
        );
    }
    if !d.trace_stages.is_empty() {
        let _ = writeln!(out, "per-stage lifecycle deltas (live − sim, aligned by tx id):");
        for s in &d.trace_stages {
            let _ = writeln!(
                out,
                "  {:<12} {:>8} txs  mean {:>+10.1} µs  p50 {:>+8} µs",
                s.stage, s.matched, s.mean_us, s.p50_us
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(entries: &[(&str, u64)], throughput: f64, latency: f64) -> RunSummary {
        let mut phases = BTreeMap::new();
        for &(name, p50) in entries {
            let (_, phase) = phase_of(name).expect("test metric must belong to a phase");
            phases.insert(name.to_string(), (phase, 10, p50));
        }
        RunSummary {
            throughput,
            latency,
            phases,
        }
    }

    #[test]
    fn identical_runs_score_perfect_fidelity() {
        let s = summary(
            &[("exec.sigverify_us", 800), ("consensus.ibft.round_us", 4_000)],
            100.0,
            1.5,
        );
        let d = diff(&s, &s);
        assert!((d.fidelity - 1.0).abs() < 1e-9, "{}", d.fidelity);
        assert_eq!(d.phases.len(), 2);
        assert!(d.phases.iter().all(|p| (p.ratio - 1.0).abs() < 1e-9));
    }

    #[test]
    fn disagreement_lowers_fidelity_symmetrically() {
        let sim = summary(&[("exec.sigverify_us", 1_000)], 100.0, 1.0);
        let fast = summary(&[("exec.sigverify_us", 500)], 100.0, 1.0);
        let slow = summary(&[("exec.sigverify_us", 2_000)], 100.0, 1.0);
        let d_fast = diff(&fast, &sim);
        let d_slow = diff(&slow, &sim);
        assert!(d_fast.fidelity < 1.0);
        // Half and double are the same size of error on the log scale.
        assert!((d_fast.fidelity - d_slow.fidelity).abs() < 1e-3);
    }

    #[test]
    fn fidelity_is_finite_even_with_nothing_in_common() {
        let d = diff(
            &RunSummary::default(),
            &summary(&[("mempool.admit_us", 50)], 10.0, 0.5),
        );
        assert!(d.fidelity.is_finite());
        assert!(d.fidelity > 0.0 && d.fidelity <= 1.0);
        assert!(d.phases.is_empty());
    }

    #[test]
    fn phases_sort_in_pipeline_order() {
        let s = summary(
            &[
                ("store.persist_us", 10),
                ("mempool.admit_us", 10),
                ("exec.block_us", 10),
            ],
            1.0,
            1.0,
        );
        let d = diff(&s, &s);
        let order: Vec<&str> = d.phases.iter().map(|p| p.phase).collect();
        assert_eq!(order, vec!["mempool", "execution", "storage"]);
    }

    #[test]
    fn json_roundtrip_matches_in_memory_summary() {
        let text = r#"{"chain":"Quorum","workload":"w","duration":10.0,
            "stats":{"sent":100,"committed":90,"commitRatio":0.9,
                     "avgThroughput":9.0,"avgLatency":1.25,
                     "medianLatency":1.0,"maxLatency":2.0},
            "txs":[],
            "telemetry":{"counters":{},"gauges":{},
                "histograms":{
                    "exec.sigverify_us":{"count":12,"sum":9600,"min":700,
                        "max":900,"p50":800,"p95":880,"p99":899},
                    "mempool.take_batch.txs":{"count":5,"sum":50,"min":10,
                        "max":10,"p50":10,"p95":10,"p99":10}},
                "spans":{}}}"#;
        let s = summarize_json(text).unwrap();
        assert_eq!(s.throughput, 9.0);
        assert_eq!(s.latency, 1.25);
        assert_eq!(
            s.phases.get("exec.sigverify_us"),
            Some(&("execution", 12, 800))
        );
        // Non-time histograms are excluded, like the phase breakdown.
        assert!(!s.phases.contains_key("mempool.take_batch.txs"));
    }

    #[test]
    fn render_mentions_fidelity_and_every_phase_row() {
        let sim = summary(&[("exec.sigverify_us", 1_000)], 100.0, 1.0);
        let live = summary(&[("exec.sigverify_us", 1_100)], 95.0, 1.1);
        let text = render(&diff(&live, &sim));
        assert!(text.contains("fidelity"), "{text}");
        assert!(text.contains("exec.sigverify_us"), "{text}");
        assert!(text.contains("throughput: live 95.0"), "{text}");
    }
}
