//! Per-transaction records and per-run results.
//!
//! The Diablo Secondaries record a submission time and a decision time
//! for every transaction (§4); everything the paper reports — average
//! throughput, average latency, commit ratio, latency CDFs — is computed
//! from these records post-mortem.

use diablo_sim::{Cdf, LogHistogram, SimTime, TimeSeries};
use diablo_store::StorageReport;

use crate::chain::Chain;

/// The fate of one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxStatus {
    /// Submitted, not yet decided when the experiment ended.
    Pending,
    /// Committed in a final block.
    Committed,
    /// Dropped at admission: memory pool at capacity.
    DroppedPoolFull,
    /// Dropped at admission: per-sender in-flight limit (Diem).
    DroppedPerSender,
    /// Evicted from the pool: recent-blockhash expiry (Solana).
    DroppedExpired,
    /// Included in a block but the execution failed (revert, budget).
    Failed,
    /// Rejected at submission (e.g. corrupted on the wire) and
    /// abandoned after the client's retry policy ran out.
    Rejected,
}

/// One transaction's lifecycle timestamps.
#[derive(Debug, Clone, Copy)]
pub struct TxRecord {
    /// Submission instant (client-side clock, §4).
    pub submitted: SimTime,
    /// Decision instant — when the polling Secondary saw the
    /// transaction in a final block.
    pub decided: Option<SimTime>,
    /// Final status.
    pub status: TxStatus,
}

impl TxRecord {
    /// A freshly submitted record.
    pub fn submitted_at(t: SimTime) -> Self {
        TxRecord {
            submitted: t,
            decided: None,
            status: TxStatus::Pending,
        }
    }

    /// Commit latency, if committed.
    pub fn latency_secs(&self) -> Option<f64> {
        match (self.status, self.decided) {
            (TxStatus::Committed, Some(d)) => Some(d.since(self.submitted).as_secs_f64()),
            _ => None,
        }
    }
}

/// One produced block (including empty slots/periods).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRecord {
    /// Chain height (1-based).
    pub height: u64,
    /// Commit instant.
    pub committed: SimTime,
    /// Transactions included.
    pub txs: u32,
    /// Payload bytes.
    pub bytes: u32,
}

/// The outcome of one chain × workload experiment.
#[derive(Debug)]
pub struct RunResult {
    /// Which chain ran.
    pub chain: Chain,
    /// Workload name.
    pub workload: String,
    /// Duration of the submission phase, in seconds.
    pub workload_secs: f64,
    /// Per-transaction records, in submission order.
    pub records: Vec<TxRecord>,
    /// If the chain could not run the DApp at all, the error string
    /// ("budget exceeded", unsupported state model): the X marks of
    /// Figure 5 and the missing bars of Figure 2.
    pub unable_reason: Option<String>,
    /// Every block the chain produced (empty ones included), in height
    /// order — the block-explorer view (the paper reads Avalanche's
    /// block period off snowtrace; this is the equivalent here).
    pub blocks: Vec<BlockRecord>,
    /// End-of-run summary of the append-only state store; `None` when
    /// the run did not enable storage (the default), keeping reports
    /// byte-identical to the pre-store execution path.
    pub storage: Option<StorageReport>,
    /// Per-transaction lifecycle traces; `None` when tracing was off
    /// (the default), keeping reports byte-identical to untraced runs.
    pub trace: Option<diablo_telemetry::trace::TraceSet>,
}

/// Events-per-second over a window, `0.0` for an empty or degenerate
/// window. Every rate the report prints goes through this one guard so
/// `average load` and `average throughput` agree on what a
/// zero-duration workload means (no rate, not a near-infinite one from
/// a clamped denominator).
pub fn rate_per_sec(count: u64, window_secs: f64) -> f64 {
    if window_secs <= 0.0 {
        0.0
    } else {
        count as f64 / window_secs
    }
}

/// Everything the results JSON, the `--stat` block, the summary line
/// and [`RunResult`]'s rate and latency accessors read from the records,
/// gathered in one pass over them: the submission-window rule and the
/// latency summation order are written here and nowhere else.
///
/// Two figures depend on the order of that pass: the average latency
/// divides a sequential `f64` sum of the per-record latencies, taken in
/// record order (a sum of the integer microseconds is a different
/// double), and the tail quantiles come from a histogram fed
/// `(secs * 1e6) as u64`, which is not always the microsecond count the
/// latency started as. The median
/// and the maximum are order statistics, which the monotone
/// microseconds-to-seconds conversion preserves, so they are taken on
/// the integers.
#[derive(Debug, Clone)]
pub struct Tally {
    sent: u64,
    by_status: [u64; STATUSES.len()],
    decided: u64,
    second_digits: u64,
    in_window: u64,
    workload_secs: f64,
    /// Commit latencies in microseconds; partially reordered by the
    /// median selection.
    latencies_us: Vec<u64>,
    latency_sum_secs: f64,
    median_latency_us: u64,
    max_latency_us: u64,
}

/// Every [`TxStatus`], in declaration order.
const STATUSES: [TxStatus; 7] = [
    TxStatus::Pending,
    TxStatus::Committed,
    TxStatus::DroppedPoolFull,
    TxStatus::DroppedPerSender,
    TxStatus::DroppedExpired,
    TxStatus::Failed,
    TxStatus::Rejected,
];

/// Decimal digits in the whole-second part of a stamp (`0` has one).
fn second_digits(t: SimTime) -> u64 {
    // Dropping the six microsecond digits of `t` leaves its seconds.
    let digits = t.as_micros().checked_ilog10().map_or(1, |log| log + 1);
    u64::from(digits.saturating_sub(6).max(1))
}

impl Tally {
    /// Walks the records of `result` once.
    pub fn new(result: &RunResult) -> Tally {
        let window = SimTime::from_secs_f64_ceil(result.workload_secs);
        let mut tally = Tally {
            sent: result.submitted(),
            by_status: [0; STATUSES.len()],
            decided: 0,
            second_digits: 0,
            in_window: 0,
            workload_secs: result.workload_secs,
            latencies_us: Vec::with_capacity(result.records.len()),
            latency_sum_secs: 0.0,
            median_latency_us: 0,
            max_latency_us: 0,
        };
        for rec in &result.records {
            tally.by_status[rec.status as usize] += 1;
            tally.second_digits += second_digits(rec.submitted);
            let Some(decided) = rec.decided else { continue };
            tally.decided += 1;
            tally.second_digits += second_digits(decided);
            if rec.status == TxStatus::Committed {
                tally.in_window += u64::from(decided <= window);
                let latency = decided.since(rec.submitted);
                tally.latencies_us.push(latency.as_micros());
                tally.latency_sum_secs += latency.as_secs_f64();
                tally.max_latency_us = tally.max_latency_us.max(latency.as_micros());
            }
        }
        // `Cdf::quantile(0.5)`'s nearest rank, selected instead of
        // sorted to.
        let n = tally.latencies_us.len();
        if n > 0 {
            let rank = ((0.5 * n as f64).ceil() as usize).clamp(1, n);
            tally.median_latency_us = *tally.latencies_us.select_nth_unstable(rank - 1).1;
        }
        tally
    }

    /// Number of submitted transactions.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Number of transactions with the given status.
    pub fn count(&self, status: TxStatus) -> u64 {
        self.by_status[status as usize]
    }

    /// Number of committed transactions.
    pub fn committed(&self) -> u64 {
        self.count(TxStatus::Committed)
    }

    /// Every status with its count.
    pub fn counts(&self) -> impl Iterator<Item = (TxStatus, u64)> + '_ {
        STATUSES.iter().map(|&status| (status, self.count(status)))
    }

    /// Number of records carrying a decision stamp, whatever their
    /// status.
    pub fn decided(&self) -> u64 {
        self.decided
    }

    /// Decimal digits in the whole-second parts of every submission and
    /// decision stamp: with the counts, what a writer needs to size its
    /// buffer before it formats the first record.
    pub fn second_digits(&self) -> u64 {
        self.second_digits
    }

    /// Proportion of committed transactions (0 when nothing was
    /// submitted).
    pub fn commit_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.committed() as f64 / self.sent as f64
        }
    }

    /// Average throughput: transactions committed *within* the
    /// submission window, divided by the window (the paper's
    /// figure-of-merit; commits during the drain period still count
    /// toward the commit ratio and the latency CDF, not throughput).
    pub fn avg_throughput(&self) -> f64 {
        rate_per_sec(self.in_window, self.workload_secs)
    }

    /// Average commit latency over committed transactions, in seconds
    /// (0 when nothing committed).
    pub fn latency_avg_secs(&self) -> f64 {
        if self.latencies_us.is_empty() {
            0.0
        } else {
            self.latency_sum_secs / self.latencies_us.len() as f64
        }
    }

    /// Median commit latency, in seconds (0 when nothing committed).
    pub fn latency_median_secs(&self) -> f64 {
        self.median_latency_us as f64 / 1e6
    }

    /// Maximum commit latency, in seconds (0 when nothing committed).
    pub fn latency_max_secs(&self) -> f64 {
        self.max_latency_us as f64 / 1e6
    }

    /// The 95th and 99th latency percentiles in seconds: nearest rank
    /// on a [`LogHistogram`] of microseconds, at most ~3% below the true
    /// value.
    pub fn latency_tail_secs(&self) -> (f64, f64) {
        let mut hist = LogHistogram::new();
        for &us in &self.latencies_us {
            // Through seconds and back, the value the printed tail has
            // always been taken on: the product can land one below `us`.
            hist.record((us as f64 / 1e6 * 1e6) as u64);
        }
        (
            hist.quantile(0.95) as f64 / 1e6,
            hist.quantile(0.99) as f64 / 1e6,
        )
    }
}

impl RunResult {
    /// A result marking the chain unable to run the workload's DApp.
    pub fn unable(chain: Chain, workload: impl Into<String>, secs: f64, reason: String) -> Self {
        RunResult {
            chain,
            workload: workload.into(),
            workload_secs: secs,
            records: Vec::new(),
            unable_reason: Some(reason),
            blocks: Vec::new(),
            storage: None,
            trace: None,
        }
    }

    /// Whether the chain could run the workload at all.
    pub fn able(&self) -> bool {
        self.unable_reason.is_none()
    }

    /// Number of submitted transactions.
    pub fn submitted(&self) -> u64 {
        self.records.len() as u64
    }

    /// Number of committed transactions.
    pub fn committed(&self) -> u64 {
        self.count_status(TxStatus::Committed)
    }

    /// Number of transactions with the given status.
    pub fn count_status(&self, status: TxStatus) -> u64 {
        self.records.iter().filter(|r| r.status == status).count() as u64
    }

    /// [`Tally::commit_ratio`].
    pub fn commit_ratio(&self) -> f64 {
        Tally::new(self).commit_ratio()
    }

    /// [`Tally::avg_throughput`].
    pub fn avg_throughput(&self) -> f64 {
        Tally::new(self).avg_throughput()
    }

    /// Average submitted load over the submission window, in tx/s —
    /// same zero-duration convention as [`Tally::avg_throughput`].
    pub fn avg_load(&self) -> f64 {
        rate_per_sec(self.submitted(), self.workload_secs)
    }

    /// [`Tally::latency_avg_secs`].
    pub fn avg_latency_secs(&self) -> f64 {
        Tally::new(self).latency_avg_secs()
    }

    /// [`Tally::latency_median_secs`].
    pub fn median_latency_secs(&self) -> f64 {
        Tally::new(self).latency_median_secs()
    }

    /// [`Tally::latency_max_secs`].
    pub fn max_latency_secs(&self) -> f64 {
        Tally::new(self).latency_max_secs()
    }

    /// The latency CDF of committed transactions (Figure 6).
    pub fn latency_cdf(&self) -> Cdf {
        Cdf::from_samples(
            self.records
                .iter()
                .filter_map(|r| r.latency_secs())
                .collect(),
        )
    }

    /// Committed transactions per second of decision time (throughput
    /// time series).
    pub fn commit_series(&self) -> TimeSeries {
        let mut ts = TimeSeries::new();
        for r in &self.records {
            if r.status == TxStatus::Committed {
                if let Some(d) = r.decided {
                    ts.record_at(d, 1);
                }
            }
        }
        ts
    }

    /// Submitted transactions per second (the Table 2 curves as
    /// actually generated).
    pub fn submit_series(&self) -> TimeSeries {
        let mut ts = TimeSeries::new();
        for r in &self.records {
            ts.record_at(r.submitted, 1);
        }
        ts
    }

    /// Mean interval between consecutive non-genesis blocks, seconds
    /// (0 with fewer than two blocks) — the observed block period.
    pub fn mean_block_interval_secs(&self) -> f64 {
        if self.blocks.len() < 2 {
            return 0.0;
        }
        let first = self.blocks.first().expect("len >= 2").committed;
        let last = self.blocks.last().expect("len >= 2").committed;
        last.since(first).as_secs_f64() / (self.blocks.len() - 1) as f64
    }

    /// Mean transactions per non-empty block (0 when no block carried
    /// transactions).
    pub fn mean_block_fill(&self) -> f64 {
        let full: Vec<&BlockRecord> = self.blocks.iter().filter(|b| b.txs > 0).collect();
        if full.is_empty() {
            return 0.0;
        }
        full.iter().map(|b| b.txs as f64).sum::<f64>() / full.len() as f64
    }

    /// One-line summary in the style of the Diablo primary's output log.
    pub fn summary(&self) -> String {
        if let Some(reason) = &self.unable_reason {
            return format!(
                "{} / {}: unable to run ({reason})",
                self.chain, self.workload
            );
        }
        let tally = Tally::new(self);
        format!(
            "{} / {}: {} sent, {} committed ({:.1}%), avg throughput {:.1} TPS, \
             avg latency {:.1}s, median latency {:.1}s",
            self.chain,
            self.workload,
            tally.sent(),
            tally.committed(),
            tally.commit_ratio() * 100.0,
            tally.avg_throughput(),
            tally.latency_avg_secs(),
            tally.latency_median_secs(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_sim::SimDuration;

    fn committed(at_secs: u64, latency_secs: u64) -> TxRecord {
        let submitted = SimTime::from_secs(at_secs);
        TxRecord {
            submitted,
            decided: Some(submitted + SimDuration::from_secs(latency_secs)),
            status: TxStatus::Committed,
        }
    }

    fn run(records: Vec<TxRecord>) -> RunResult {
        RunResult {
            chain: Chain::Quorum,
            workload: "test".into(),
            workload_secs: 10.0,
            records,
            unable_reason: None,
            blocks: Vec::new(),
            storage: None,
            trace: None,
        }
    }

    #[test]
    fn metrics_from_records() {
        let r = run(vec![
            committed(0, 2),
            committed(1, 4),
            TxRecord::submitted_at(SimTime::from_secs(2)),
            TxRecord {
                submitted: SimTime::from_secs(3),
                decided: None,
                status: TxStatus::DroppedPoolFull,
            },
        ]);
        assert_eq!(r.submitted(), 4);
        assert_eq!(r.committed(), 2);
        assert_eq!(r.commit_ratio(), 0.5);
        assert_eq!(r.avg_throughput(), 0.2);
        assert_eq!(r.avg_latency_secs(), 3.0);
        assert_eq!(r.max_latency_secs(), 4.0);
        assert_eq!(r.count_status(TxStatus::DroppedPoolFull), 1);
    }

    #[test]
    fn one_tally_holds_what_the_accessors_compute() {
        let r = run(vec![
            committed(0, 2),
            committed(1, 4),
            committed(9, 3), // decided after the 10 s window
            TxRecord::submitted_at(SimTime::from_secs(2)),
            TxRecord {
                submitted: SimTime::from_secs(3),
                decided: None,
                status: TxStatus::DroppedPoolFull,
            },
            // Committed without a stamp: counted, no latency.
            TxRecord {
                submitted: SimTime::from_secs(4),
                decided: None,
                status: TxStatus::Committed,
            },
            // Failed with a stamp: decided, no latency.
            TxRecord {
                submitted: SimTime::from_secs(5),
                decided: Some(SimTime::from_secs(12)),
                status: TxStatus::Failed,
            },
        ]);
        let t = Tally::new(&r);
        assert_eq!(t.sent(), 7);
        assert_eq!(t.committed(), 4);
        assert_eq!(t.count(TxStatus::DroppedPoolFull), 1);
        assert_eq!(t.count(TxStatus::Rejected), 0);
        assert_eq!(t.counts().map(|(_, n)| n).sum::<u64>(), 7);
        // `by_status` is indexed by discriminant.
        assert!(STATUSES.iter().enumerate().all(|(i, &s)| s as usize == i));
        assert!(t.counts().all(|(status, n)| n == r.count_status(status)));
        assert_eq!(t.decided(), 4);
        assert_eq!(t.commit_ratio(), 4.0 / 7.0);
        assert_eq!(t.avg_throughput(), 0.2);
        assert_eq!(t.latency_avg_secs(), 3.0);
        assert_eq!(t.latency_median_secs(), 3.0);
        assert_eq!(
            t.latency_median_secs(),
            r.latency_cdf().quantile(0.5).unwrap()
        );
        assert_eq!(t.latency_max_secs(), 4.0);
        assert_eq!(t.latency_tail_secs(), (4.0, 4.0));
        // Seven submissions and four decisions, two of them at 12 s.
        assert_eq!(t.second_digits(), 7 + 4 + 2);

        let empty = Tally::new(&run(Vec::new()));
        assert_eq!(empty.commit_ratio(), 0.0);
        assert_eq!(empty.latency_avg_secs(), 0.0);
        assert_eq!(empty.latency_median_secs(), 0.0);
        assert_eq!(empty.latency_tail_secs(), (0.0, 0.0));
    }

    #[test]
    fn second_digits_are_those_of_the_whole_seconds() {
        for (us, digits) in [
            (0, 1),
            (999_999, 1),
            (1_000_000, 1),
            (9_999_999, 1),
            (10_000_000, 2),
            (99_999_999, 2),
            (100_000_000, 3),
            (u64::MAX, 14),
        ] {
            assert_eq!(second_digits(SimTime::from_micros(us)), digits, "{us} µs");
            assert_eq!(
                digits as usize,
                (us / 1_000_000).to_string().len(),
                "{us} µs"
            );
        }
    }

    #[test]
    fn cdf_only_counts_commits() {
        let r = run(vec![
            committed(0, 1),
            committed(0, 3),
            TxRecord::submitted_at(SimTime::ZERO),
        ]);
        let cdf = r.latency_cdf();
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.quantile(1.0), Some(3.0));
    }

    #[test]
    fn zero_duration_runs_have_no_rates() {
        // Regression: `avg_load` used to clamp the denominator to 1e-9
        // while `avg_throughput` returned 0, so a degenerate run
        // reported astronomical load next to zero throughput. Both now
        // go through the same guarded rate.
        let mut r = run(vec![committed(0, 1), committed(0, 2)]);
        r.workload_secs = 0.0;
        assert_eq!(r.avg_load(), 0.0);
        assert_eq!(r.avg_throughput(), 0.0);
        assert_eq!(rate_per_sec(100, 0.0), 0.0);
        assert_eq!(rate_per_sec(100, -1.0), 0.0);
        assert_eq!(rate_per_sec(100, 10.0), 10.0);
    }

    #[test]
    fn unable_runs_report_reason() {
        let r = RunResult::unable(Chain::Solana, "uber", 120.0, "budget exceeded".into());
        assert!(!r.able());
        assert_eq!(r.avg_throughput(), 0.0);
        assert!(r.summary().contains("budget exceeded"));
    }

    #[test]
    fn series_bucket_by_second() {
        let r = run(vec![committed(0, 2), committed(0, 2), committed(5, 1)]);
        let commits = r.commit_series();
        assert_eq!(commits.get(2), 2);
        assert_eq!(commits.get(6), 1);
        let submits = r.submit_series();
        assert_eq!(submits.get(0), 2);
        assert_eq!(submits.get(5), 1);
    }

    #[test]
    fn block_statistics() {
        let mut r = run(vec![committed(0, 2)]);
        r.blocks = vec![
            BlockRecord {
                height: 1,
                committed: SimTime::from_secs(1),
                txs: 10,
                bytes: 1500,
            },
            BlockRecord {
                height: 2,
                committed: SimTime::from_secs(3),
                txs: 0,
                bytes: 0,
            },
            BlockRecord {
                height: 3,
                committed: SimTime::from_secs(5),
                txs: 30,
                bytes: 4500,
            },
        ];
        assert!((r.mean_block_interval_secs() - 2.0).abs() < 1e-9);
        assert!((r.mean_block_fill() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let s = run(vec![committed(0, 2)]).summary();
        assert!(s.contains("1 committed"));
        assert!(s.contains("Quorum"));
    }
}
