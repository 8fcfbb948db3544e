//! Post-mortem analysis exports.
//!
//! §4: the aggregator's timestamps "can then be used post-mortem to
//! generate time series and analyze the distribution of latencies".
//! This module turns a run into plot-ready artifacts: per-second
//! throughput series, latency CDFs (the Figure 6 curves) and percentile
//! summaries, in gnuplot-friendly whitespace-separated `.dat` format and
//! in CSV for spreadsheets.

use std::fmt::Write as _;

use diablo_chains::{RunResult, Tally};

/// Latency percentile summary of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median latency, seconds.
    pub p50: f64,
    /// 90th percentile, seconds.
    pub p90: f64,
    /// 99th percentile, seconds.
    pub p99: f64,
    /// Maximum, seconds.
    pub max: f64,
}

/// Computes the latency percentiles of committed transactions
/// (all zero when nothing committed).
pub fn latency_summary(result: &RunResult) -> LatencySummary {
    let cdf = result.latency_cdf();
    LatencySummary {
        p50: cdf.quantile(0.50).unwrap_or(0.0),
        p90: cdf.quantile(0.90).unwrap_or(0.0),
        p99: cdf.quantile(0.99).unwrap_or(0.0),
        max: cdf.quantile(1.0).unwrap_or(0.0),
    }
}

/// Per-second throughput series: `second submitted committed` rows.
pub fn throughput_series_dat(result: &RunResult) -> String {
    let submitted = result.submit_series();
    let committed = result.commit_series();
    let secs = submitted.seconds().max(committed.seconds());
    let mut out = String::from("# second submitted committed\n");
    for sec in 0..secs {
        let _ = writeln!(out, "{sec} {} {}", submitted.get(sec), committed.get(sec));
    }
    out
}

/// Latency CDF as `latency_secs cumulative_fraction` rows, downsampled
/// to at most `max_points` points. The fraction is normalized by the
/// number of *submitted* transactions, so drops appear as a plateau
/// below 1 — exactly how the paper's Figure 6 is drawn.
pub fn latency_cdf_dat(result: &RunResult, max_points: usize) -> String {
    let cdf = result.latency_cdf();
    let submitted = result.submitted().max(1) as f64;
    let scale = cdf.len() as f64 / submitted;
    let mut out = String::from("# latency_secs fraction_of_submitted\n");
    for (latency, fraction) in cdf.sampled_points(max_points) {
        let _ = writeln!(out, "{latency:.4} {:.6}", fraction * scale);
    }
    out
}

/// One-row-per-run comparison CSV for a set of results (the table the
/// figure binaries print, machine-readable).
pub fn comparison_csv(results: &[&RunResult]) -> String {
    let mut out = String::from(
        "chain,workload,submitted,committed,commit_ratio,avg_throughput,avg_latency,\
         p50,p90,p99,max_latency,unable\n",
    );
    for r in results {
        let lat = latency_summary(r);
        let tally = Tally::new(r);
        let _ = writeln!(
            out,
            "{},{},{},{},{:.6},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{}",
            r.chain.name(),
            r.workload,
            tally.sent(),
            tally.committed(),
            tally.commit_ratio(),
            tally.avg_throughput(),
            tally.latency_avg_secs(),
            lat.p50,
            lat.p90,
            lat.p99,
            lat.max,
            r.unable_reason.as_deref().unwrap_or("")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_chains::{Chain, RunResult, TxRecord, TxStatus};
    use diablo_sim::{SimDuration, SimTime};

    fn run_with_latencies(latencies: &[u64]) -> RunResult {
        let records = latencies
            .iter()
            .map(|&l| {
                let submitted = SimTime::from_secs(1);
                TxRecord {
                    submitted,
                    decided: Some(submitted + SimDuration::from_secs(l)),
                    status: TxStatus::Committed,
                }
            })
            .chain(std::iter::once(TxRecord::submitted_at(SimTime::from_secs(
                2,
            ))))
            .collect();
        RunResult {
            chain: Chain::Quorum,
            workload: "t".into(),
            workload_secs: 10.0,
            records,
            unable_reason: None,
            blocks: Vec::new(),
            storage: None,
            trace: None,
        }
    }

    #[test]
    fn percentiles() {
        let r = run_with_latencies(&(1..=100).collect::<Vec<_>>());
        let s = latency_summary(&r);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn series_dat_format() {
        let r = run_with_latencies(&[3]);
        let dat = throughput_series_dat(&r);
        let mut lines = dat.lines();
        assert_eq!(lines.next(), Some("# second submitted committed"));
        assert_eq!(lines.next(), Some("0 0 0"));
        assert_eq!(lines.next(), Some("1 1 0"));
        assert_eq!(lines.next(), Some("2 1 0"));
        // Commit lands at second 4 (submit 1 + latency 3).
        assert!(dat.lines().any(|l| l == "4 0 1"), "{dat}");
    }

    #[test]
    fn cdf_dat_plateaus_below_one_with_drops() {
        let r = run_with_latencies(&[1, 2, 3]); // 3 commits of 4 submitted
        let dat = latency_cdf_dat(&r, 10);
        let last = dat.lines().last().unwrap();
        let fraction: f64 = last.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!((fraction - 0.75).abs() < 1e-9, "{dat}");
    }

    #[test]
    fn comparison_csv_has_one_row_per_run() {
        let a = run_with_latencies(&[1]);
        let b = RunResult::unable(Chain::Solana, "uber", 120.0, "budget exceeded".into());
        let csv = comparison_csv(&[&a, &b]);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("Quorum,t,2,1"));
        assert!(csv.contains("Solana,uber,0,0"));
        assert!(csv.contains("budget exceeded"));
    }
}
