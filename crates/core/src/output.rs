//! Result files: the aggregator's JSON output and the artifact's CSV
//! conversion (§4 and appendix A.3).
//!
//! The Primary "outputs a JSON file, indicating the start time and end
//! time of each transaction", which "can then be used post-mortem to
//! generate time series and analyze the distribution of latencies". The
//! artifact additionally converts results to CSV with one line per
//! transaction (submission time, latency). Both writers live here,
//! including the small JSON serializer (the workspace carries no JSON
//! dependency).

use std::fmt::Write as _;

use diablo_chains::{RunResult, Tally, TxStatus};
use diablo_sim::SimTime;

/// Escapes a string for inclusion in JSON.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The status string written to result files.
pub fn status_name(status: TxStatus) -> &'static str {
    match status {
        TxStatus::Pending => "pending",
        TxStatus::Committed => "committed",
        TxStatus::DroppedPoolFull => "dropped-pool-full",
        TxStatus::DroppedPerSender => "dropped-per-sender",
        TxStatus::DroppedExpired => "dropped-expired",
        TxStatus::Failed => "aborted",
        TxStatus::Rejected => "rejected",
    }
}

/// Below this many microseconds the fixed-point digits of a stamp are
/// the bytes `{:.6}` prints for its `f64` seconds. The quotient
/// `us as f64 / 1e6` is within `t * 2^-53` of the true `t = us / 10^6`,
/// which for `us < 2^52` (`t < 4.5e9` s) is under half a microsecond:
/// rounding to six places recovers `us`, and no tie can occur.
const FIXED_POINT_BELOW: u64 = 1 << 52;

/// Appends `t` in seconds with six decimals: the bytes of
/// `{:.6}` on `t.as_secs_f64()`, from integer arithmetic.
fn push_secs(out: &mut String, t: SimTime) {
    let us = t.as_micros();
    if us >= FIXED_POINT_BELOW {
        let _ = write!(out, "{:.6}", t.as_secs_f64());
        return;
    }
    // 2^52 µs is 4,503,599,627 s: ten digits, the point, six digits.
    let mut buf = [b'0'; 17];
    buf[10] = b'.';
    let mut frac = us % 1_000_000;
    for digit in buf[11..].iter_mut().rev() {
        *digit = b'0' + (frac % 10) as u8;
        frac /= 10;
    }
    let mut secs = us / 1_000_000;
    let mut start = 10;
    loop {
        start -= 1;
        buf[start] = b'0' + (secs % 10) as u8;
        secs /= 10;
        if secs == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[start..]).expect("ASCII digits and a point"));
}

/// Serializes a run to the Diablo results JSON.
///
/// Schema: `{"chain", "workload", "duration", "stats": {...}, "txs":
/// [[submit_secs, decide_secs | null, "status"], ...]}`.
pub fn results_json(result: &RunResult) -> String {
    document(result, "")
}

/// The results document with `tail` — further top-level sections, each
/// led by its comma — spliced in before the closing brace.
fn document(result: &RunResult, tail: &str) -> String {
    let tally = Tally::new(result);
    let mut head = String::with_capacity(512);
    head.push('{');
    let _ = write!(
        head,
        "\"chain\":\"{}\",\"workload\":\"{}\",\"duration\":{:.3},",
        json_escape(result.chain.name()),
        json_escape(&result.workload),
        result.workload_secs
    );
    if let Some(reason) = &result.unable_reason {
        let _ = write!(head, "\"unable\":\"{}\",", json_escape(reason));
    }
    let _ = write!(
        head,
        "\"stats\":{{\"sent\":{},\"committed\":{},\"commitRatio\":{:.6},\
         \"avgThroughput\":{:.3},\"avgLatency\":{:.3},\"medianLatency\":{:.3},\
         \"maxLatency\":{:.3}}},",
        tally.sent(),
        tally.committed(),
        tally.commit_ratio(),
        tally.avg_throughput(),
        tally.latency_avg_secs(),
        tally.latency_median_secs(),
        tally.latency_max_secs()
    );
    // The storage section exists only when the staged commit pipeline
    // ran: disabled runs serialize byte-identically to the pre-store
    // format.
    if let Some(storage) = &result.storage {
        let _ = write!(
            head,
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
    head.push_str("\"txs\":[");

    // The array's exact length, so the 34 bytes a record takes on
    // average never make the document's buffer grow: per record the
    // brackets, two commas and two quotes, per stamp the point and six
    // decimals, `null` for each missing stamp, the separating commas.
    let sent = tally.sent();
    let names: u64 = tally
        .counts()
        .map(|(status, n)| n * status_name(status).len() as u64)
        .sum();
    let txs = 6 * sent
        + 7 * (sent + tally.decided())
        + tally.second_digits()
        + 4 * (sent - tally.decided())
        + names
        + sent.saturating_sub(1);
    let mut out = String::with_capacity(head.len() + txs as usize + "]}".len() + tail.len());
    out.push_str(&head);
    for (i, rec) in result.records.iter().enumerate() {
        out.push_str(if i == 0 { "[" } else { ",[" });
        push_secs(&mut out, rec.submitted);
        match rec.decided {
            Some(d) => {
                out.push(',');
                push_secs(&mut out, d);
                out.push_str(",\"");
            }
            None => out.push_str(",null,\""),
        }
        out.push_str(status_name(rec.status));
        out.push_str("\"]");
    }
    out.push(']');
    out.push_str(tail);
    out.push('}');
    out
}

/// The `,"telemetry":{...}` section; empty when the snapshot is.
fn telemetry_section(telemetry: &diablo_telemetry::TelemetrySnapshot) -> String {
    if telemetry.is_empty() {
        String::new()
    } else {
        format!(",\"telemetry\":{}", telemetry.to_json())
    }
}

/// Serializes a run plus its merged telemetry snapshot: the standard
/// [`results_json`] document with an extra top-level `"telemetry"`
/// section (omitted when the snapshot is empty, e.g. in compiled-out
/// builds). The telemetry section is integer-only, so a pinned-seed
/// run serializes byte-identically across machines and worker counts.
pub fn results_json_with_telemetry(
    result: &RunResult,
    telemetry: &diablo_telemetry::TelemetrySnapshot,
) -> String {
    document(result, &telemetry_section(telemetry))
}

/// Serializes a full [`crate::Report`]: the standard
/// [`results_json_with_telemetry`] document plus — for live runs — a
/// top-level `"liveDiff"` section with the fidelity score, the
/// throughput comparison, the per-phase median ratios and the number of
/// Secondaries lost mid-run. Reports without a live diff serialize
/// byte-identically to [`results_json_with_telemetry`], so simulated
/// runs keep their pinned-seed golden outputs.
pub fn results_json_report(report: &crate::Report) -> String {
    let mut tail = telemetry_section(&report.telemetry);
    if let Some(diff) = &report.live_diff {
        let _ = write!(
            tail,
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
                tail.push(',');
            }
            let _ = write!(
                tail,
                "{{\"phase\":\"{}\",\"metric\":\"{}\",\"liveP50\":{},\"simP50\":{},\
                 \"ratio\":{:.6}}}",
                p.phase,
                json_escape(&p.metric),
                p.live_p50_us,
                p.sim_p50_us,
                p.ratio
            );
        }
        tail.push_str("]}");
    }
    document(&report.result, &tail)
}

/// Converts a run to the artifact's CSV format: one line per
/// transaction with the submission time (seconds) and the commit
/// latency (seconds; empty when not committed), ordered by submission —
/// "the latencies are expressed in seconds and follow the transaction
/// submission times" (appendix A.3).
pub fn results_csv(result: &RunResult) -> String {
    let mut out = String::from("submit,latency,status\n");
    for rec in &result.records {
        match rec.latency_secs() {
            Some(lat) => {
                let _ = writeln!(
                    out,
                    "{:.2},{:.2},{}",
                    rec.submitted.as_secs_f64(),
                    lat,
                    status_name(rec.status)
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{:.2},,{}",
                    rec.submitted.as_secs_f64(),
                    status_name(rec.status)
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_chains::{Chain, TxRecord};
    use diablo_sim::{SimDuration, SimTime};

    fn sample() -> RunResult {
        let t0 = SimTime::from_millis(100);
        RunResult {
            chain: Chain::Algorand,
            workload: "native-10".into(),
            workload_secs: 30.0,
            records: vec![
                TxRecord {
                    submitted: t0,
                    decided: Some(t0 + SimDuration::from_millis(530)),
                    status: TxStatus::Committed,
                },
                TxRecord {
                    submitted: SimTime::from_secs(1),
                    decided: None,
                    status: TxStatus::Pending,
                },
            ],
            unable_reason: None,
            blocks: Vec::new(),
            storage: None,
            trace: None,
        }
    }

    #[test]
    fn json_contains_stats_and_txs() {
        let json = results_json(&sample());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"chain\":\"Algorand\""));
        assert!(json.contains("\"sent\":2"));
        assert!(json.contains("\"committed\":1"));
        assert!(json.contains("[0.100000,0.630000,\"committed\"]"), "{json}");
        assert!(json.contains("null,\"pending\""));
    }

    #[test]
    fn csv_matches_artifact_example_shape() {
        // The screencast example: "the first submitted transaction for
        // Algorand at time 0.10 second took 0.53 seconds to commit".
        let csv = results_csv(&sample());
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("submit,latency,status"));
        assert_eq!(lines.next(), Some("0.10,0.53,committed"));
        assert_eq!(lines.next(), Some("1.00,,pending"));
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn telemetry_section_is_appended_when_nonempty() {
        let empty = diablo_telemetry::TelemetrySnapshot::default();
        assert_eq!(
            results_json_with_telemetry(&sample(), &empty),
            results_json(&sample()),
            "empty snapshots leave the document untouched"
        );
        let mut snap = diablo_telemetry::TelemetrySnapshot::default();
        snap.counters.push(("consensus.blocks.committed".into(), 7));
        let json = results_json_with_telemetry(&sample(), &snap);
        assert!(json.ends_with('}'), "{json}");
        assert!(
            json.contains("\"telemetry\":{"),
            "telemetry section present: {json}"
        );
        assert!(json.contains("\"consensus.blocks.committed\":7"), "{json}");
        // Still a parseable document with the original sections intact.
        let parsed = crate::json::parse(&json).expect("valid json");
        assert!(parsed.get("stats").is_some());
        assert!(parsed.get("telemetry").is_some());
    }

    #[test]
    fn storage_section_only_appears_when_the_store_ran() {
        let without = results_json(&sample());
        assert!(!without.contains("\"storage\""), "{without}");

        let mut run = sample();
        run.storage = Some(diablo_chains::StorageReport {
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
        });
        let json = results_json(&run);
        assert!(json.contains("\"storage\":{\"mode\":\"distance=3\""), "{json}");
        assert!(json.contains("\"prunedBlocks\":5"), "{json}");
        let parsed = crate::json::parse(&json).expect("valid json");
        let storage = parsed.get("storage").expect("storage section");
        assert!(storage.get("root").is_some());
        assert!(storage.get("residentBytes").is_some());
    }

    #[test]
    fn live_diff_section_appears_only_for_live_reports() {
        let mut report = crate::Report {
            result: sample(),
            secondaries: 2,
            clients: 4,
            telemetry: diablo_telemetry::TelemetrySnapshot::default(),
            faults: diablo_chains::FaultPlan::none(),
            lost_secondaries: Vec::new(),
            live_diff: None,
        };
        assert_eq!(
            results_json_report(&report),
            results_json_with_telemetry(&report.result, &report.telemetry),
            "simulated reports keep the pre-live byte format"
        );

        report.live_diff = Some(crate::livediff::diff(
            &crate::livediff::RunSummary::default(),
            &crate::livediff::RunSummary::default(),
        ));
        report.lost_secondaries = vec![1];
        let json = results_json_report(&report);
        assert!(json.contains("\"liveDiff\":{\"fidelity\":"), "{json}");
        assert!(json.contains("\"lostSecondaries\":1"), "{json}");
        let parsed = crate::json::parse(&json).expect("valid json");
        let diff = parsed.get("liveDiff").expect("liveDiff section");
        let fidelity = diff.get("fidelity").and_then(crate::json::Json::as_f64);
        assert!(fidelity.is_some_and(|f| f.is_finite()), "{json}");
    }

    #[test]
    fn unable_runs_serialize_reason() {
        let r = RunResult::unable(Chain::Solana, "uber", 120.0, "budget exceeded".into());
        let json = results_json(&r);
        assert!(json.contains("\"unable\":\"budget exceeded\""));
        assert!(json.contains("\"txs\":[]"));
    }
}
