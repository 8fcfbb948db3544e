//! The results plane against the code it replaced.
//!
//! The writer, the `--stat` block and the summary line read one
//! [`Tally`] and the record writer formats stamps in fixed point; the
//! readers skip what they are not asked for. The code they replaced —
//! one pass over the records per figure, `{:.6}` through `write!`, a
//! full `Json` tree to read seven scalars — is kept in [`oracle`], and
//! every property here asks for the same bytes and the same bits from
//! both. Replay a failure with `DIABLO_PROP_SEED`.

use diablo_chains::{Chain, FaultPlan, RunResult, StorageReport, Tally, TxRecord, TxStatus};
use diablo_core::json::read_result_stats;
use diablo_core::livediff::{self, summarize_json, RunSummary};
use diablo_core::output::{results_json, results_json_report, results_json_with_telemetry};
use diablo_core::Report;
use diablo_sim::{LogHistogram, SimTime};
use diablo_telemetry::{HistogramSnapshot, TelemetrySnapshot};
use diablo_testkit::gen::{
    ascii_strings, choice, f64s, from_slice, just, u64s, u8s, usizes, vecs, BoxedGen, Gen,
};
use diablo_testkit::{prop_assert, prop_assert_eq, Property};

/// The parent commit's results plane, verbatim but for taking its
/// inputs as arguments.
mod oracle {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    use diablo_chains::{rate_per_sec, RunResult, TxStatus};
    use diablo_core::json::{parse, Json, JsonError, ResultStats};
    use diablo_core::livediff::RunSummary;
    use diablo_core::output::{json_escape, status_name};
    use diablo_core::Report;
    use diablo_sim::{Cdf, LogHistogram, SimTime};
    use diablo_telemetry::TelemetrySnapshot;

    /// What the removed `diablo_sim::Summary` kept of a stream of
    /// latencies in seconds: a Welford mean and a histogram of
    /// microseconds for the tail.
    pub struct Summary {
        mean: f64,
        hist: LogHistogram,
    }

    impl Summary {
        pub fn of(latencies: impl Iterator<Item = f64>) -> Summary {
            let mut s = Summary {
                mean: 0.0,
                hist: LogHistogram::new(),
            };
            for x in latencies {
                s.hist
                    .record((x * 1e6).max(0.0).min(u64::MAX as f64) as u64);
                s.mean += (x - s.mean) / s.hist.count() as f64;
            }
            s
        }

        pub fn quantile(&self, q: f64) -> f64 {
            self.hist.quantile(q) as f64 / 1e6
        }
    }

    pub fn committed(r: &RunResult) -> u64 {
        r.records
            .iter()
            .filter(|r| r.status == TxStatus::Committed)
            .count() as u64
    }

    pub fn count_status(r: &RunResult, status: TxStatus) -> u64 {
        r.records.iter().filter(|r| r.status == status).count() as u64
    }

    pub fn commit_ratio(r: &RunResult) -> f64 {
        let n = r.submitted();
        if n == 0 {
            0.0
        } else {
            committed(r) as f64 / n as f64
        }
    }

    pub fn avg_throughput(r: &RunResult) -> f64 {
        if r.workload_secs <= 0.0 {
            return 0.0;
        }
        let window = SimTime::from_secs_f64_ceil(r.workload_secs);
        let in_window = r
            .records
            .iter()
            .filter(|r| r.status == TxStatus::Committed && r.decided.is_some_and(|d| d <= window))
            .count();
        rate_per_sec(in_window as u64, r.workload_secs)
    }

    pub fn avg_latency_secs(r: &RunResult) -> f64 {
        let lats: Vec<f64> = r.records.iter().filter_map(|r| r.latency_secs()).collect();
        if lats.is_empty() {
            0.0
        } else {
            lats.iter().sum::<f64>() / lats.len() as f64
        }
    }

    pub fn median_latency_secs(r: &RunResult) -> f64 {
        Cdf::from_samples(r.records.iter().filter_map(|r| r.latency_secs()).collect())
            .quantile(0.5)
            .unwrap_or(0.0)
    }

    pub fn max_latency_secs(r: &RunResult) -> f64 {
        r.records
            .iter()
            .filter_map(|r| r.latency_secs())
            .fold(0.0, f64::max)
    }

    pub fn results_json(result: &RunResult) -> String {
        let mut out = String::with_capacity(64 + result.records.len() * 32);
        out.push('{');
        let _ = write!(
            out,
            "\"chain\":\"{}\",\"workload\":\"{}\",\"duration\":{:.3},",
            json_escape(result.chain.name()),
            json_escape(&result.workload),
            result.workload_secs
        );
        if let Some(reason) = &result.unable_reason {
            let _ = write!(out, "\"unable\":\"{}\",", json_escape(reason));
        }
        let _ = write!(
            out,
            "\"stats\":{{\"sent\":{},\"committed\":{},\"commitRatio\":{:.6},\
             \"avgThroughput\":{:.3},\"avgLatency\":{:.3},\"medianLatency\":{:.3},\
             \"maxLatency\":{:.3}}},",
            result.submitted(),
            committed(result),
            commit_ratio(result),
            avg_throughput(result),
            avg_latency_secs(result),
            median_latency_secs(result),
            max_latency_secs(result)
        );
        if let Some(storage) = &result.storage {
            let _ = write!(
                out,
                "\"storage\":{{\"mode\":\"{}\",\"root\":\"{}\",\"blocks\":{},\"txs\":{},\
                 \"residentBlocks\":{},\"residentBytes\":{},\"prunedBlocks\":{},\
                 \"hotPages\":{},\"frozenPages\":{},\"storageEntries\":{}}},",
                json_escape(&storage.mode),
                storage.root_hex,
                storage.blocks,
                storage.txs,
                storage.resident_blocks,
                storage.resident_bytes,
                storage.pruned_blocks,
                storage.hot_pages,
                storage.frozen_pages,
                storage.storage_entries
            );
        }
        out.push_str("\"txs\":[");
        for (i, rec) in result.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{:.6},", rec.submitted.as_secs_f64());
            match rec.decided {
                Some(d) => {
                    let _ = write!(out, "{:.6},", d.as_secs_f64());
                }
                None => out.push_str("null,"),
            }
            let _ = write!(out, "\"{}\"]", status_name(rec.status));
        }
        out.push_str("]}");
        out
    }

    pub fn results_json_with_telemetry(
        result: &RunResult,
        telemetry: &TelemetrySnapshot,
    ) -> String {
        let mut out = results_json(result);
        if telemetry.is_empty() {
            return out;
        }
        let closed = out.pop();
        assert_eq!(closed, Some('}'));
        out.push_str(",\"telemetry\":");
        out.push_str(&telemetry.to_json());
        out.push('}');
        out
    }

    pub fn results_json_report(report: &Report) -> String {
        let mut out = results_json_with_telemetry(&report.result, &report.telemetry);
        let Some(diff) = &report.live_diff else {
            return out;
        };
        let closed = out.pop();
        assert_eq!(closed, Some('}'));
        let _ = write!(
            out,
            ",\"liveDiff\":{{\"fidelity\":{:.6},\"lostSecondaries\":{},\
             \"liveThroughput\":{:.3},\"simThroughput\":{:.3},\
             \"liveLatency\":{:.3},\"simLatency\":{:.3},\"phases\":[",
            diff.fidelity,
            report.lost_secondaries.len(),
            diff.live_throughput,
            diff.sim_throughput,
            diff.live_latency,
            diff.sim_latency
        );
        for (i, p) in diff.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"phase\":\"{}\",\"metric\":\"{}\",\"liveP50\":{},\"simP50\":{},\
                 \"ratio\":{:.6}}}",
                p.phase,
                json_escape(&p.metric),
                p.live_p50_us,
                p.sim_p50_us,
                p.ratio
            );
        }
        out.push_str("]}}");
        out
    }

    pub fn stats_text(report: &Report) -> String {
        if let Some(reason) = &report.result.unable_reason {
            return format!(
                "benchmark {} on {}: unable to run ({reason})\n",
                report.result.workload, report.result.chain
            );
        }
        let r = &report.result;
        let sent = r.submitted();
        let committed = committed(r);
        let dropped = count_status(r, TxStatus::DroppedPoolFull)
            + count_status(r, TxStatus::DroppedPerSender)
            + count_status(r, TxStatus::DroppedExpired);
        let failed = count_status(r, TxStatus::Failed);
        let rejected = count_status(r, TxStatus::Rejected);
        let pending = count_status(r, TxStatus::Pending);
        let (p95, p99) = tail_latency_secs(r);
        let mut out = format!(
            "benchmark {} on {} ({} secondaries, {} clients)\n\
             {sent} transactions sent, {committed} committed, {dropped} dropped, \
             {failed} aborted, {rejected} rejected, {pending} pending\n\
             average load: {:.1} tx/s\n\
             average throughput: {:.1} tx/s\n\
             average latency: {:.1} s, median latency: {:.1} s\n\
             latency p95: {:.2} s, p99: {:.2} s\n",
            r.workload,
            r.chain,
            report.secondaries,
            report.clients,
            r.avg_load(),
            avg_throughput(r),
            avg_latency_secs(r),
            median_latency_secs(r),
            p95,
            p99,
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
        out.push_str(&fault_summary(report));
        out.push_str(&report.phase_breakdown());
        if let Some(diff) = &report.live_diff {
            out.push_str(&diablo_core::livediff::render(diff));
        }
        out
    }

    /// The `p95` / `p99` of `stats_text`, before rounding to print.
    pub fn tail_latency_secs(r: &RunResult) -> (f64, f64) {
        let latencies = Summary::of(r.records.iter().filter_map(|r| r.latency_secs()));
        (latencies.quantile(0.95), latencies.quantile(0.99))
    }

    pub fn fault_summary(report: &Report) -> String {
        let mut out = String::new();
        if !report.lost_secondaries.is_empty() {
            let ids: Vec<String> = report
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
        if report.faults.is_empty() {
            return out;
        }
        let r = &report.result;
        let mut horizon = SimTime::from_millis((r.workload_secs * 1000.0) as u64);
        for rec in &r.records {
            horizon = horizon.max(rec.submitted);
            if let Some(d) = rec.decided {
                horizon = horizon.max(d);
            }
        }
        let windows = report.faults.active_windows(horizon);
        let fault_secs: f64 = windows
            .iter()
            .map(|&(from, until)| until.as_secs_f64() - from.as_secs_f64())
            .sum();
        let in_fault = |t: SimTime| windows.iter().any(|&(from, until)| t >= from && t < until);
        let side = |faulty: bool| {
            Summary::of(
                r.records
                    .iter()
                    .filter(|rec| in_fault(rec.submitted) == faulty)
                    .filter_map(|rec| rec.latency_secs()),
            )
        };
        let (faulty, healthy) = (side(true), side(false));
        let _ = writeln!(
            out,
            "fault windows: {} spanning {:.1} s",
            windows.len(),
            fault_secs
        );
        let _ = writeln!(
            out,
            "fault-period latency: avg {:.2} s, p95 {:.2} s ({} committed)",
            faulty.mean,
            faulty.quantile(0.95),
            faulty.hist.count()
        );
        let _ = writeln!(
            out,
            "healthy-period latency: avg {:.2} s, p95 {:.2} s ({} committed)",
            healthy.mean,
            healthy.quantile(0.95),
            healthy.hist.count()
        );
        out
    }

    pub fn summary(r: &RunResult) -> String {
        if let Some(reason) = &r.unable_reason {
            return format!("{} / {}: unable to run ({reason})", r.chain, r.workload);
        }
        format!(
            "{} / {}: {} sent, {} committed ({:.1}%), avg throughput {:.1} TPS, \
             avg latency {:.1}s, median latency {:.1}s",
            r.chain,
            r.workload,
            r.submitted(),
            committed(r),
            commit_ratio(r) * 100.0,
            avg_throughput(r),
            avg_latency_secs(r),
            median_latency_secs(r),
        )
    }

    /// `read_result_stats` over the whole tree.
    pub fn read_result_stats(text: &str) -> Result<ResultStats, JsonError> {
        let root = parse(text)?;
        let field = |k: &str| root.get(k).cloned().unwrap_or(Json::Null);
        let stats = field("stats");
        let refuse = |message: String| JsonError { offset: 0, message };
        if !matches!(stats, Json::Object(_)) {
            return Err(refuse("not a results file: no stats object".into()));
        }
        let num = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let count = |k: &str| match stats.get(k) {
            Some(Json::Number(n)) => Ok(*n as u64),
            _ => Err(refuse(format!(
                "not a results file: stats.{k} is not a number"
            ))),
        };
        Ok(ResultStats {
            chain: field("chain").as_str().unwrap_or("?").to_string(),
            workload: field("workload").as_str().unwrap_or("?").to_string(),
            sent: count("sent")?,
            committed: count("committed")?,
            avg_throughput: num("avgThroughput"),
            avg_latency: num("avgLatency"),
            unable: field("unable").as_str().map(str::to_string),
        })
    }

    fn phase_of(name: &str) -> Option<&'static str> {
        if name.starts_with("mempool.") {
            Some("mempool")
        } else if name.starts_with("consensus.") {
            Some("consensus")
        } else if name.starts_with("exec.")
            || name.starts_with("vm.")
            || name.starts_with("parallel.")
        {
            Some("execution")
        } else if name.starts_with("net.") {
            Some("network")
        } else if name.starts_with("store.") {
            Some("storage")
        } else {
            None
        }
    }

    /// `livediff::summarize_json` over the whole tree.
    pub fn summarize_json(text: &str) -> Result<RunSummary, String> {
        let doc = parse(text).map_err(|e| e.to_string())?;
        let stats = doc
            .get("stats")
            .ok_or("not a results file: no stats section")?;
        let number = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let mut summary = RunSummary {
            throughput: number("avgThroughput"),
            latency: number("avgLatency"),
            phases: BTreeMap::new(),
        };
        if let Some(Json::Object(histograms)) =
            doc.get("telemetry").and_then(|t| t.get("histograms"))
        {
            for (name, h) in histograms {
                if !name.ends_with("_us") {
                    continue;
                }
                if let Some(phase) = phase_of(name) {
                    let field = |key: &str| h.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                    summary
                        .phases
                        .insert(name.clone(), (phase, field("count"), field("p50")));
                }
            }
        }
        Ok(summary)
    }
}

const STATUSES: [TxStatus; 7] = [
    TxStatus::Pending,
    TxStatus::Committed,
    TxStatus::DroppedPoolFull,
    TxStatus::DroppedPerSender,
    TxStatus::DroppedExpired,
    TxStatus::Failed,
    TxStatus::Rejected,
];

/// Where fixed point and `{:.6}` could part: around each power of ten
/// (a digit more), around the microsecond-to-second carry, and around
/// `2^52`, where the writer goes back to formatting the float.
fn stamp_edges() -> Vec<u64> {
    let mut edges = vec![0, 1, 999_999, 1_000_000, 1_000_001, u64::MAX - 1, u64::MAX];
    for k in 1..=19 {
        let p = 10u64.pow(k);
        edges.extend([p - 1, p, p + 1]);
    }
    for k in [52, 53, 63] {
        let p = 1u64 << k;
        edges.extend([p - 1, p, p + 1]);
    }
    edges
}

/// Stamps a run produces (the first minutes, microsecond grain), any
/// `u64`, and the edges.
fn arb_stamp() -> BoxedGen<u64> {
    choice(vec![
        u64s(0..=300_000_000).boxed(),
        u64s(0..=300_000_000).boxed(),
        u64s(0..=u64::MAX).boxed(),
        from_slice(&stamp_edges()).boxed(),
    ])
    .boxed()
}

/// `(submitted µs, decided µs, status index)`: every status with and
/// without a decision stamp, stamps in either order.
type RecordSpec = (u64, Option<u64>, u8);

fn arb_record() -> BoxedGen<RecordSpec> {
    (
        arb_stamp(),
        choice(vec![
            just(None).boxed(),
            arb_stamp().map(Some).boxed(),
            arb_stamp().map(Some).boxed(),
        ]),
        // Half the records commit, so the latency figures have samples.
        choice(vec![just(1u8).boxed(), u8s(0..=6).boxed()]),
    )
        .boxed()
}

/// One run: records, the submission window, a workload name the writer
/// must escape, and flag bits (storage section, unable, telemetry,
/// live diff, a fault window).
type RunSpec = (Vec<RecordSpec>, f64, String, u8);

fn arb_run() -> BoxedGen<RunSpec> {
    (
        choice(vec![
            vecs(arb_record(), 0..=2).boxed(),
            vecs(arb_record(), 0..=80).boxed(),
        ]),
        choice(vec![
            f64s(0.0..400.0).boxed(),
            from_slice(&[0.0, -3.0, 1e-7, 30.0]).boxed(),
        ]),
        ascii_strings(0..=12),
        u8s(0..=31),
    )
        .boxed()
}

fn build(spec: &RunSpec) -> Report {
    let (records, workload_secs, workload, flags) = spec;
    let flag = |bit: u8| flags & (1 << bit) != 0;
    let result = RunResult {
        chain: Chain::ALL[records.len() % Chain::ALL.len()],
        workload: workload.clone(),
        workload_secs: *workload_secs,
        records: records
            .iter()
            .map(|&(submitted, decided, status)| TxRecord {
                submitted: SimTime::from_micros(submitted),
                decided: decided.map(SimTime::from_micros),
                status: STATUSES[status as usize],
            })
            .collect(),
        unable_reason: flag(1).then(|| "budget \"exceeded\"".to_string()),
        blocks: Vec::new(),
        storage: flag(0).then(|| StorageReport {
            mode: "distance=3".into(),
            root_hex: "ab".repeat(32),
            blocks: 12,
            txs: 240,
            resident_blocks: 7,
            resident_bytes: 4096,
            pruned_blocks: 5,
            hot_pages: 2,
            frozen_pages: 1,
            storage_entries: 90,
        }),
        trace: None,
    };
    let mut telemetry = TelemetrySnapshot::default();
    if flag(2) {
        let mut h = LogHistogram::new();
        for v in [100u64, 200, 400] {
            h.record(v);
        }
        telemetry
            .counters
            .push(("consensus.blocks.committed".into(), 7));
        telemetry.histograms.push((
            "exec.sigverify_us".into(),
            HistogramSnapshot::from_histogram(&h),
        ));
    }
    let faults = if flag(4) {
        FaultPlan::builder()
            .partition(0..2, 2..4, SimTime::from_secs(5), SimTime::from_secs(40))
            .build()
    } else {
        FaultPlan::none()
    };
    Report {
        result,
        secondaries: 2,
        clients: 4,
        telemetry,
        faults,
        lost_secondaries: if flag(3) { vec![1] } else { Vec::new() },
        live_diff: flag(3).then(|| livediff::diff(&RunSummary::default(), &RunSummary::default())),
    }
}

#[test]
fn one_tally_prints_what_the_multipass_code_printed() {
    // Kills case 1: fixed point used past 2^52 microseconds.
    // Kills case 5: the average latency summed in integer microseconds.
    // Kills case 51: the tail histogram fed the integer latency.
    Property::new("results_plane_vs_multipass_oracle")
        .cases(400)
        .check(&arb_run(), |spec| {
            let report = build(spec);
            let r = &report.result;
            prop_assert_eq!(results_json(r), oracle::results_json(r));
            prop_assert_eq!(
                results_json_with_telemetry(r, &report.telemetry),
                oracle::results_json_with_telemetry(r, &report.telemetry)
            );
            prop_assert_eq!(
                results_json_report(&report),
                oracle::results_json_report(&report)
            );
            prop_assert_eq!(report.stats_text(), oracle::stats_text(&report));
            prop_assert_eq!(r.summary(), oracle::summary(r));

            // Every accessor, and the tally behind the three texts, bit
            // for bit.
            let tally = Tally::new(r);
            prop_assert_eq!(r.committed(), oracle::committed(r));
            prop_assert_eq!(tally.committed(), oracle::committed(r));
            prop_assert_eq!(tally.sent(), r.submitted());
            for status in STATUSES {
                prop_assert_eq!(r.count_status(status), oracle::count_status(r, status));
                prop_assert_eq!(tally.count(status), oracle::count_status(r, status));
            }
            let (p95, p99) = tally.latency_tail_secs();
            let (old_p95, old_p99) = oracle::tail_latency_secs(r);
            let floats = [
                ("p95", p95, p95, old_p95),
                ("p99", p99, p99, old_p99),
                (
                    "commit_ratio",
                    r.commit_ratio(),
                    tally.commit_ratio(),
                    oracle::commit_ratio(r),
                ),
                (
                    "avg_throughput",
                    r.avg_throughput(),
                    tally.avg_throughput(),
                    oracle::avg_throughput(r),
                ),
                (
                    "avg_latency_secs",
                    r.avg_latency_secs(),
                    tally.latency_avg_secs(),
                    oracle::avg_latency_secs(r),
                ),
                (
                    "median_latency_secs",
                    r.median_latency_secs(),
                    tally.latency_median_secs(),
                    oracle::median_latency_secs(r),
                ),
                (
                    "max_latency_secs",
                    r.max_latency_secs(),
                    tally.latency_max_secs(),
                    oracle::max_latency_secs(r),
                ),
            ];
            for (name, accessor, tallied, old) in floats {
                prop_assert!(
                    accessor.to_bits() == old.to_bits(),
                    "RunResult::{name}: {accessor:?} was {old:?}"
                );
                prop_assert!(
                    tallied.to_bits() == old.to_bits(),
                    "Tally::{name}: {tallied:?} was {old:?}"
                );
            }
            Ok(())
        });
}

#[test]
fn fixed_point_stamps_are_the_bytes_of_float_formatting() {
    let check = |stamps: &[u64]| {
        let mut r = RunResult::unable(Chain::Quorum, "w", 1.0, String::new());
        r.unable_reason = None;
        r.records = stamps
            .chunks(2)
            .map(|pair| TxRecord {
                submitted: SimTime::from_micros(pair[0]),
                decided: pair.get(1).map(|&d| SimTime::from_micros(d)),
                status: TxStatus::Pending,
            })
            .collect();
        let expected: Vec<String> = stamps
            .chunks(2)
            .map(|pair| {
                let decided = pair
                    .get(1)
                    .map_or("null".to_string(), |&d| format!("{:.6}", d as f64 / 1e6));
                format!("[{:.6},{decided},\"pending\"]", pair[0] as f64 / 1e6)
            })
            .collect();
        let json = results_json(&r);
        let txs = json
            .split_once("\"txs\":")
            .expect("a txs section")
            .1
            .strip_suffix('}')
            .expect("a closing brace");
        prop_assert_eq!(txs, format!("[{}]", expected.join(",")));
        // The buffer was sized for exactly these digits.
        prop_assert!(
            json.capacity() == json.len() || stamps.iter().any(|&s| s >= 1 << 52),
            "{} bytes in a buffer of {}",
            json.len(),
            json.capacity()
        );
        Ok(())
    };
    check(&stamp_edges()).expect("the edges");
    Property::new("fixed_point_vs_float_formatting")
        .cases(400)
        .check(&vecs(arb_stamp(), 0..=64), |stamps| check(stamps));
}

/// One edit of a document: `(kind, position, a character, a string)`.
type Mutation = (u8, usize, u8, String);

/// Characters that move a JSON parser between states.
const STRUCTURAL: &[u8] = b"[]{}:,\"\\-+.eE0123456789 tfnu\n/x";

fn arb_mutation() -> BoxedGen<Mutation> {
    (
        u8s(0..=7),
        usizes(0..=usize::MAX),
        from_slice(STRUCTURAL),
        ascii_strings(0..=6),
    )
        .boxed()
}

/// Members a reader asks for, to plant as duplicates: the last one
/// must win in the skipping reader as it does in the tree.
const DUPLICATES: [&str; 5] = [
    "\"stats\":{\"sent\":3,\"avgThroughput\":2.5}",
    "\"chain\":\"twice\"",
    "\"unable\":null",
    "\"telemetry\":{\"histograms\":{\"net.phase.linear_us\":{\"count\":2,\"p50\":9}}}",
    "\"stats\":[1,2]",
];

fn mutate(doc: &str, (kind, at, c, s): &Mutation) -> String {
    let mut chars: Vec<char> = doc.chars().collect();
    let at = at % (chars.len() + 1);
    match kind {
        0 => {}
        1 if at < chars.len() => chars[at] = *c as char,
        2 => chars.truncate(at),
        3 => chars.extend(s.chars()),
        4 if at < chars.len() => {
            chars.remove(at);
        }
        5 => chars.insert(at, *c as char),
        // A duplicated member, first or last in the top-level object.
        6 if chars.first() == Some(&'{') => {
            let member = format!("{},", DUPLICATES[at % DUPLICATES.len()]);
            chars.splice(1..1, member.chars());
        }
        7 if chars.last() == Some(&'}') => {
            let member = format!(",{}", DUPLICATES[at % DUPLICATES.len()]);
            let end = chars.len() - 1;
            chars.splice(end..end, member.chars());
        }
        _ => {}
    }
    chars.into_iter().collect()
}

#[test]
fn the_skipping_reader_answers_as_the_tree_did() {
    let same = |text: &str| {
        prop_assert_eq!(read_result_stats(text), oracle::read_result_stats(text));
        prop_assert_eq!(summarize_json(text), oracle::summarize_json(text));
        Ok(())
    };
    // Kills case 164: a skipped number left unchecked.
    Property::new("skipping_reader_vs_tree_reader")
        .cases(600)
        .check(
            &(arb_run(), vecs(arb_mutation(), 0..=3)),
            |(spec, mutations)| {
                let mut text = results_json_report(&build(spec));
                same(&text)?;
                for mutation in mutations {
                    text = mutate(&text, mutation);
                    same(&text)?;
                }
                Ok(())
            },
        );

    // Shapes the mutants rarely reach: a root that is no object, number
    // forms the float parser takes and JSON does not, escapes, nesting
    // at the bound.
    let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
    for text in [
        "[1,2]".to_string(),
        "\"stats\"".to_string(),
        "null".to_string(),
        "{\"stats\":{\"sent\":1.,\"committed\":-.5e1},\"txs\":[1.e5,.5]}".to_string(),
        "{\"stats\":{},\"txs\":[-]}".to_string(),
        "{\"stats\":{},\"txs\":[1e]}".to_string(),
        "{\"stats\":{},\"txs\":[\"\\u00e9\\n\\/\"]}".to_string(),
        "{\"stats\":{},\"txs\":[\"\\u+041\"]}".to_string(),
        "{\"stats\":{},\"txs\":[\"\\x\"]}".to_string(),
        "{\"stats\":{},\"txs\":{\"k\":1,\"k\":[]}} x".to_string(),
        format!("{{\"stats\":{{}},\"txs\":{}}}", nested(127)),
        format!("{{\"stats\":{{}},\"txs\":{}}}", nested(128)),
        format!("{{\"txs\":{},\"stats\":{{}}}}", nested(128)),
    ] {
        same(&text).unwrap_or_else(|cause| panic!("{text}: {cause}"));
    }

    // Two million `[` used to overflow the stack, at the top level or
    // inside a value the reader skips.
    let deep = "[".repeat(2_000_000);
    for hostile in [deep.clone(), format!("{{\"stats\":{{}},\"txs\":{deep}")] {
        assert!(read_result_stats(&hostile).is_err());
        assert!(summarize_json(&hostile).is_err());
        same(&hostile).expect("the tree reader is bounded too");
    }
}
