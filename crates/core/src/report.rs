//! Benchmark reports: the aggregation the Primary performs (§4).

use std::fmt::Write as _;

use diablo_chains::{FaultPlan, RunResult, Tally, TxStatus};
use diablo_sim::{LogHistogram, SimTime};
use diablo_telemetry::TelemetrySnapshot;

/// The aggregated outcome of one benchmark run.
#[derive(Debug)]
pub struct Report {
    /// The underlying per-transaction results.
    pub result: RunResult,
    /// How many Secondaries produced the load.
    pub secondaries: usize,
    /// How many clients (worker threads) were emulated.
    pub clients: u32,
    /// The merged telemetry snapshot of the run: the Primary's own
    /// recorder plus every Secondary's (empty when telemetry is
    /// compiled out).
    pub telemetry: TelemetrySnapshot,
    /// The effective fault schedule of the run (spec `fault:` section
    /// merged with the invocation's chaos flags); empty when the run
    /// was fault-free.
    pub faults: FaultPlan,
    /// Indices of Secondaries that died mid-benchmark (their plans were
    /// truncated, or — in distributed mode — their results never
    /// arrived and the aggregation is partial).
    pub lost_secondaries: Vec<usize>,
    /// The live run's fidelity diff against its simulation twin
    /// (`--live`, see [`crate::livediff`]); `None` for pure
    /// simulations.
    pub live_diff: Option<crate::livediff::LiveDiff>,
}

/// The pipeline phase a telemetry metric belongs to, by name prefix;
/// `None` for metrics outside the five per-phase groups.
pub(crate) fn phase_of(name: &str) -> Option<(usize, &'static str)> {
    if name.starts_with("mempool.") {
        Some((0, "mempool"))
    } else if name.starts_with("consensus.") {
        Some((1, "consensus"))
    } else if name.starts_with("exec.") || name.starts_with("vm.") || name.starts_with("parallel.")
    {
        Some((2, "execution"))
    } else if name.starts_with("net.") {
        Some((3, "network"))
    } else if name.starts_with("store.") {
        Some((4, "storage"))
    } else {
        None
    }
}

impl Report {
    /// Whether the chain could run the benchmark at all.
    pub fn able(&self) -> bool {
        self.result.able()
    }

    /// The statistics block the Diablo primary prints to standard
    /// output (`--stat`), in the style of the paper's artifact appendix:
    /// transactions sent / committed / aborted / pending, average load,
    /// average throughput, latency average / median / tail, and — when
    /// the run recorded telemetry — the per-phase latency breakdown.
    pub fn stats_text(&self) -> String {
        if let Some(reason) = &self.result.unable_reason {
            return format!(
                "benchmark {} on {}: unable to run ({reason})\n",
                self.result.workload, self.result.chain
            );
        }
        let r = &self.result;
        let tally = Tally::new(r);
        let sent = tally.sent();
        let committed = tally.committed();
        let dropped = tally.count(TxStatus::DroppedPoolFull)
            + tally.count(TxStatus::DroppedPerSender)
            + tally.count(TxStatus::DroppedExpired);
        let failed = tally.count(TxStatus::Failed);
        let rejected = tally.count(TxStatus::Rejected);
        let pending = tally.count(TxStatus::Pending);
        let (p95, p99) = tally.latency_tail_secs();
        let mut out = format!(
            "benchmark {} on {} ({} secondaries, {} clients)\n\
             {sent} transactions sent, {committed} committed, {dropped} dropped, \
             {failed} aborted, {rejected} rejected, {pending} pending\n\
             average load: {:.1} tx/s\n\
             average throughput: {:.1} tx/s\n\
             average latency: {:.1} s, median latency: {:.1} s\n\
             latency p95: {p95:.2} s, p99: {p99:.2} s\n",
            r.workload,
            r.chain,
            self.secondaries,
            self.clients,
            r.avg_load(),
            tally.avg_throughput(),
            tally.latency_avg_secs(),
            tally.latency_median_secs(),
        );
        if let Some(storage) = &r.storage {
            let _ = writeln!(
                out,
                "state store ({}): root {}…, {} blocks / {} txs persisted, \
                 {} resident ({} pruned), {} B resident",
                storage.mode,
                &storage.root_hex[..16],
                storage.blocks,
                storage.txs,
                storage.resident_blocks,
                storage.pruned_blocks,
                storage.resident_bytes,
            );
        }
        out.push_str(&self.fault_summary());
        out.push_str(&self.phase_breakdown());
        if let Some(diff) = &self.live_diff {
            out.push_str(&crate::livediff::render(diff));
        }
        out
    }

    /// The fault-period vs healthy-period latency split printed under
    /// `--stat` when the run injected faults: committed transactions
    /// are bucketed by whether their submission instant fell inside any
    /// active fault window ([`FaultPlan::active_windows`]). Empty for
    /// fault-free runs with no lost Secondaries.
    pub fn fault_summary(&self) -> String {
        let mut out = String::new();
        if !self.lost_secondaries.is_empty() {
            let ids: Vec<String> = self
                .lost_secondaries
                .iter()
                .map(|s| s.to_string())
                .collect();
            let _ = writeln!(
                out,
                "warning: secondaries [{}] died mid-benchmark; results are partial",
                ids.join(", ")
            );
        }
        if self.faults.is_empty() {
            return out;
        }
        let r = &self.result;
        // The horizon closes every open-ended window (permanent crash,
        // slowdown) at the end of the observed run.
        let mut horizon = SimTime::from_millis((r.workload_secs * 1000.0) as u64);
        for rec in &r.records {
            horizon = horizon.max(rec.submitted);
            if let Some(d) = rec.decided {
                horizon = horizon.max(d);
            }
        }
        let windows = self.faults.active_windows(horizon);
        let fault_secs: f64 = windows
            .iter()
            .map(|&(from, until)| until.as_secs_f64() - from.as_secs_f64())
            .sum();
        let in_fault =
            |t: SimTime| windows.iter().any(|&(from, until)| t >= from && t < until);
        // Per side: a Welford running mean (not a sum over the count,
        // which can round to another `{:.2}`) and a histogram of
        // microseconds for the p95.
        let mut sides = [(0.0f64, LogHistogram::new()), (0.0, LogHistogram::new())];
        for rec in &r.records {
            if let Some(l) = rec.latency_secs() {
                let (mean, hist) = &mut sides[usize::from(!in_fault(rec.submitted))];
                hist.record((l * 1e6).max(0.0) as u64);
                *mean += (l - *mean) / hist.count() as f64;
            }
        }
        let _ = writeln!(
            out,
            "fault windows: {} spanning {:.1} s",
            windows.len(),
            fault_secs
        );
        for (label, (mean, hist)) in ["fault-period", "healthy-period"].iter().zip(&sides) {
            let _ = writeln!(
                out,
                "{label} latency: avg {mean:.2} s, p95 {:.2} s ({} committed)",
                hist.quantile(0.95) as f64 / 1e6,
                hist.count()
            );
        }
        out
    }

    /// The per-phase latency table: every time-valued histogram
    /// (`*_us`, sim-time microseconds) the run recorded, grouped under
    /// the pipeline phase its name prefix denotes. Empty when no
    /// telemetry was recorded (e.g. compiled-out builds).
    pub fn phase_breakdown(&self) -> String {
        let mut rows: Vec<(usize, &'static str, &str, &diablo_telemetry::HistogramSnapshot)> =
            self.telemetry
                .histograms
                .iter()
                .filter(|(name, _)| name.ends_with("_us"))
                .filter_map(|(name, h)| {
                    phase_of(name).map(|(rank, phase)| (rank, phase, name.as_str(), h))
                })
                .collect();
        if rows.is_empty() {
            return String::new();
        }
        rows.sort_by(|a, b| (a.0, a.2).cmp(&(b.0, b.2)));
        let mut out = String::from("per-phase latency breakdown (sim-time µs):\n");
        let _ = writeln!(
            out,
            "  {:<10} {:<34} {:>10} {:>14} {:>9} {:>9} {:>9}",
            "phase", "metric", "count", "total", "p50", "p95", "p99"
        );
        for (_, phase, name, h) in rows {
            let _ = writeln!(
                out,
                "  {:<10} {:<34} {:>10} {:>14} {:>9} {:>9} {:>9}",
                phase,
                name,
                h.count,
                h.sum,
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_chains::{Chain, TxRecord};
    use diablo_sim::{SimDuration, SimTime};

    fn report() -> Report {
        let submitted = SimTime::from_secs(1);
        let records = vec![
            TxRecord {
                submitted,
                decided: Some(submitted + SimDuration::from_secs(3)),
                status: TxStatus::Committed,
            },
            TxRecord {
                submitted,
                decided: None,
                status: TxStatus::Pending,
            },
            TxRecord {
                submitted,
                decided: None,
                status: TxStatus::DroppedPoolFull,
            },
        ];
        Report {
            result: RunResult {
                chain: Chain::Algorand,
                workload: "native-10".into(),
                workload_secs: 30.0,
                records,
                unable_reason: None,
                blocks: Vec::new(),
                storage: None,
                trace: None,
            },
            secondaries: 2,
            clients: 4,
            telemetry: TelemetrySnapshot::default(),
            faults: FaultPlan::none(),
            lost_secondaries: Vec::new(),
            live_diff: None,
        }
    }

    #[test]
    fn stats_text_mentions_all_counters() {
        let text = report().stats_text();
        assert!(text.contains("3 transactions sent"), "{text}");
        assert!(text.contains("1 committed"), "{text}");
        assert!(text.contains("1 dropped"), "{text}");
        assert!(text.contains("1 pending"), "{text}");
        assert!(text.contains("2 secondaries"), "{text}");
        assert!(text.contains("Algorand"), "{text}");
        assert!(text.contains("latency p95"), "{text}");
    }

    #[test]
    fn tail_latency_tracks_the_single_commit() {
        // One committed transaction at 3 s: every latency quantile is
        // that observation.
        let text = report().stats_text();
        assert!(text.contains("p95: 3.00 s"), "{text}");
        assert!(text.contains("p99: 3.00 s"), "{text}");
    }

    #[test]
    fn phase_breakdown_groups_time_histograms() {
        use diablo_sim::LogHistogram;
        let mut r = report();
        let mut h = LogHistogram::new();
        for v in [100u64, 200, 400] {
            h.record(v);
        }
        let snap = diablo_telemetry::HistogramSnapshot::from_histogram(&h);
        r.telemetry.histograms = vec![
            ("consensus.ibft.round_us".to_string(), snap.clone()),
            ("mempool.take_batch.txs".to_string(), snap.clone()), // not *_us: excluded
            ("net.phase.linear_us".to_string(), snap.clone()),
            ("unrelated.metric_us".to_string(), snap),
        ];
        let table = r.phase_breakdown();
        assert!(table.contains("consensus  consensus.ibft.round_us"), "{table}");
        assert!(table.contains("network    net.phase.linear_us"), "{table}");
        assert!(!table.contains("take_batch"), "{table}");
        assert!(!table.contains("unrelated"), "{table}");
        // Consensus sorts before network.
        let c = table.find("consensus.ibft").unwrap();
        let n = table.find("net.phase").unwrap();
        assert!(c < n, "{table}");
        // Empty telemetry renders nothing.
        assert_eq!(report().phase_breakdown(), "");
    }

    #[test]
    fn storage_line_appears_when_the_store_ran() {
        assert!(!report().stats_text().contains("state store"));
        let mut r = report();
        r.result.storage = Some(diablo_chains::StorageReport {
            mode: "distance=3".into(),
            root_hex: "cd".repeat(32),
            blocks: 12,
            txs: 240,
            resident_blocks: 7,
            resident_bytes: 4096,
            pruned_blocks: 5,
            hot_pages: 2,
            frozen_pages: 1,
            storage_entries: 90,
        });
        let text = r.stats_text();
        assert!(text.contains("state store (distance=3)"), "{text}");
        assert!(text.contains("root cdcdcdcdcdcdcdcd…"), "{text}");
        assert!(text.contains("12 blocks / 240 txs"), "{text}");
        // Store spans group under their own phase in the breakdown.
        assert_eq!(phase_of("store.persist_us"), Some((4, "storage")));
    }

    #[test]
    fn unable_reports_reason() {
        let r = Report {
            result: RunResult::unable(Chain::Solana, "uber", 120.0, "budget exceeded".into()),
            secondaries: 1,
            clients: 1,
            telemetry: TelemetrySnapshot::default(),
            faults: FaultPlan::none(),
            lost_secondaries: Vec::new(),
            live_diff: None,
        };
        assert!(!r.able());
        assert!(r.stats_text().contains("budget exceeded"));
    }

    #[test]
    fn fault_summary_splits_latency_by_window() {
        let mut r = report();
        // One fault window 0..10 s; the report's records submit at 1 s,
        // so every committed transaction lands in the faulty bucket.
        r.faults = FaultPlan::builder()
            .partition(0..2, 2..4, SimTime::from_secs(0), SimTime::from_secs(10))
            .build();
        let text = r.stats_text();
        assert!(text.contains("fault windows: 1 spanning 10.0 s"), "{text}");
        assert!(text.contains("fault-period latency: avg 3.00 s"), "{text}");
        assert!(text.contains("(1 committed)"), "{text}");
        assert!(text.contains("healthy-period latency"), "{text}");
        // Fault-free reports print no fault section at all.
        assert!(!report().stats_text().contains("fault windows"));
    }

    #[test]
    fn lost_secondaries_are_called_out() {
        let mut r = report();
        r.lost_secondaries = vec![1, 3];
        let text = r.stats_text();
        assert!(
            text.contains("secondaries [1, 3] died mid-benchmark"),
            "{text}"
        );
    }
}
