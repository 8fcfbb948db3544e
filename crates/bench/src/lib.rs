//! The paper's evaluation (§6), regenerated and asserted.
//!
//! [`ledger`] lists every table and figure with how it is built from
//! runs and what the paper says it shows; [`cache`] executes each run
//! once however many rows read it; [`cli`] is the `repro` binary.
//! `tests/paper_shapes.rs` at the workspace root evaluates the ledger's
//! predicates, `scripts/ci.sh` byte-compares what `repro all` prints
//! against `results/`.

pub mod cache;
pub mod cli;
pub mod ledger;

mod beyond;
mod figures;
mod tables;

use std::fmt::Write as _;
use std::sync::Arc;

use cache::Run;

/// A horizontal bar for plain-text "figures".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "█".repeat(n.clamp(1, width))
}

/// The one table layout every throughput / latency / commit comparison
/// prints in. Bars scale to `scale`, or to the best row without one; a
/// chain that cannot run the DApp at all gets Figure 5's X marks.
fn perf_table(out: &mut String, head: &str, scale: Option<f64>, rows: &[(String, Arc<Run>)]) {
    let w = rows.iter().map(|(label, _)| label.chars().count()).fold(head.len(), usize::max);
    let max = scale.unwrap_or_else(|| rows.iter().map(|(_, r)| r.tput).fold(1.0, f64::max));
    let _ = writeln!(out, "{head:<w$}  tput TPS   latency   commit  throughput");
    for (label, r) in rows {
        let (tput, latency, commit) = (r.tput, r.latency, r.commit() * 100.0);
        let bar = bar(tput, max, 30);
        let _ = match &r.unable {
            Some(reason) => writeln!(out, "{label:<w$}         X         X        X  ({reason})"),
            None => writeln!(out, "{label:<w$} {tput:>9.1} {latency:>8.1}s {commit:>7.1}%  {bar}"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale() {
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(10.0, 10.0, 10).chars().count(), 10);
        assert_eq!(bar(5.0, 10.0, 10).chars().count(), 5);
        assert_eq!(bar(0.01, 10.0, 10).chars().count(), 1, "non-zero values stay visible");
    }
}
