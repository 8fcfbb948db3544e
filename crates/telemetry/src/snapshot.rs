//! Immutable, mergeable telemetry snapshots.
//!
//! A [`TelemetrySnapshot`] is the frozen state of every recorder at one
//! instant: counters, gauge high-watermarks, log-linear histograms and
//! span statistics, each as a name-sorted vector. Sorting makes two
//! snapshots comparable with `==`, makes [`TelemetrySnapshot::to_json`]
//! byte-deterministic, and lets the Primary merge the Secondaries'
//! snapshots with a linear zip. All merge operations are commutative
//! and associative — the merged result does not depend on the order
//! snapshots arrive in.
//!
//! These types compile in both telemetry builds: with
//! `--cfg diablo_telemetry_off` the recorders are gone but the wire
//! format and report plumbing still type-check (snapshots are simply
//! empty).

use std::collections::BTreeMap;

use diablo_sim::LogHistogram;

/// Accumulated statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of times the span was entered.
    pub count: u64,
    /// Total time between enter and exit, including child spans (µs).
    pub inclusive_us: u64,
    /// Total time excluding child spans (µs).
    pub exclusive_us: u64,
}

impl SpanStat {
    /// Adds another span's totals into this one (saturating).
    pub(crate) fn merge(&mut self, other: &SpanStat) {
        self.count = self.count.saturating_add(other.count);
        self.inclusive_us = self.inclusive_us.saturating_add(other.inclusive_us);
        self.exclusive_us = self.exclusive_us.saturating_add(other.exclusive_us);
    }
}

/// A frozen [`LogHistogram`]: moments plus sparse `(bucket, count)`
/// pairs sorted by bucket index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (saturating at `u64::MAX`).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Non-empty `(bucket_index, count)` pairs, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Freezes a live histogram.
    pub fn from_histogram(h: &LogHistogram) -> Self {
        HistogramSnapshot {
            count: h.count(),
            sum: u64::try_from(h.sum()).unwrap_or(u64::MAX),
            min: h.min(),
            max: h.max(),
            buckets: h.iter_indexed().map(|(i, c)| (i as u32, c)).collect(),
        }
    }

    /// The `q`-quantile by nearest rank over bucket floors
    /// ([`LogHistogram::quantile`]'s walk). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let buckets = self.buckets.iter().map(|&(idx, c)| (idx as usize, c));
        LogHistogram::quantile_of(buckets, self.count, self.min, self.max, q)
    }

    /// Merges another snapshot into this one (bucket-wise addition).
    pub(crate) fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(idx, c) in &other.buckets {
            let e = merged.entry(idx).or_insert(0);
            *e = e.saturating_add(c);
        }
        self.buckets = merged.into_iter().collect();
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The frozen state of every telemetry recorder at one instant.
///
/// All four sections are sorted by name; [`TelemetrySnapshot::merge`]
/// preserves that invariant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Monotonic counters, by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge high-watermarks, by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Span statistics, by `;`-joined path (collapsed-stack notation).
    pub spans: Vec<(String, SpanStat)>,
}

impl TelemetrySnapshot {
    /// Whether the snapshot holds no data at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i].1)
    }

    /// Merges another snapshot into this one: counters and span totals
    /// add, gauges keep the maximum, histograms add bucket-wise.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        let mut counters: BTreeMap<String, u64> = std::mem::take(&mut self.counters)
            .into_iter()
            .collect();
        for (name, v) in &other.counters {
            let e = counters.entry(name.clone()).or_insert(0);
            *e = e.saturating_add(*v);
        }
        self.counters = counters.into_iter().collect();

        let mut gauges: BTreeMap<String, i64> =
            std::mem::take(&mut self.gauges).into_iter().collect();
        for (name, v) in &other.gauges {
            let e = gauges.entry(name.clone()).or_insert(i64::MIN);
            *e = (*e).max(*v);
        }
        self.gauges = gauges.into_iter().collect();

        let mut hists: BTreeMap<String, HistogramSnapshot> = std::mem::take(&mut self.histograms)
            .into_iter()
            .collect();
        for (name, h) in &other.histograms {
            hists.entry(name.clone()).or_default().merge(h);
        }
        self.histograms = hists.into_iter().collect();

        let mut spans: BTreeMap<String, SpanStat> =
            std::mem::take(&mut self.spans).into_iter().collect();
        for (name, s) in &other.spans {
            spans.entry(name.clone()).or_default().merge(s);
        }
        self.spans = spans.into_iter().collect();
    }

    /// Serializes the snapshot as a JSON object with sorted keys and
    /// integer-only values — byte-identical for identical snapshots.
    ///
    /// Histograms are summarized (`count`, `sum`, `min`, `max` and
    /// nearest-rank `p50`/`p95`/`p99`); raw buckets stay wire-only.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, name);
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, name);
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, name);
            out.push_str(&format!(
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99)
            ));
        }
        out.push_str("},\"spans\":{");
        for (i, (path, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, path);
            out.push_str(&format!(
                "{{\"count\":{},\"inclusive_us\":{},\"exclusive_us\":{}}}",
                s.count, s.inclusive_us, s.exclusive_us
            ));
        }
        out.push_str("}}");
        out
    }
}

fn push_key(out: &mut String, name: &str) {
    out.push('"');
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push_str("\":");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> HistogramSnapshot {
        let mut h = LogHistogram::new();
        for &v in values {
            h.record(v);
        }
        HistogramSnapshot::from_histogram(&h)
    }

    #[test]
    fn histogram_snapshot_quantiles_match_live() {
        let values: Vec<u64> = (1..=1000).collect();
        let mut live = LogHistogram::new();
        for &v in &values {
            live.record(v);
        }
        let snap = HistogramSnapshot::from_histogram(&live);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), live.quantile(q), "q = {q}");
        }
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
    }

    #[test]
    fn histogram_snapshot_merge_commutes() {
        let a = hist(&[1, 5, 900, 40_000]);
        let b = hist(&[2, 5, 77, 1_000_000]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 8);
        assert_eq!(ab.min, 1);
        assert_eq!(ab.max, 1_000_000);
    }

    #[test]
    fn snapshot_merge_adds_and_maxes() {
        let mut a = TelemetrySnapshot {
            counters: vec![("x".into(), 1), ("y".into(), 2)],
            gauges: vec![("g".into(), 10)],
            histograms: vec![("h".into(), hist(&[5]))],
            spans: vec![(
                "s".into(),
                SpanStat {
                    count: 1,
                    inclusive_us: 10,
                    exclusive_us: 10,
                },
            )],
        };
        let b = TelemetrySnapshot {
            counters: vec![("y".into(), 3), ("z".into(), 4)],
            gauges: vec![("g".into(), 7)],
            histograms: vec![("h".into(), hist(&[9]))],
            spans: vec![(
                "s".into(),
                SpanStat {
                    count: 2,
                    inclusive_us: 5,
                    exclusive_us: 3,
                },
            )],
        };
        a.merge(&b);
        assert_eq!(a.counter("x"), Some(1));
        assert_eq!(a.counter("y"), Some(5));
        assert_eq!(a.counter("z"), Some(4));
        assert_eq!(a.gauges, vec![("g".into(), 10)]);
        assert_eq!(a.histogram("h").unwrap().count, 2);
        assert_eq!(a.spans[0].1.count, 3);
        assert_eq!(a.spans[0].1.inclusive_us, 15);
    }

    #[test]
    fn json_is_sorted_and_integer_only() {
        let snap = TelemetrySnapshot {
            counters: vec![("a.b".into(), 7)],
            gauges: vec![],
            histograms: vec![("h".into(), hist(&[10, 20, 30]))],
            spans: vec![(
                "p;q".into(),
                SpanStat {
                    count: 2,
                    inclusive_us: 9,
                    exclusive_us: 4,
                },
            )],
        };
        let json = snap.to_json();
        assert!(json.starts_with("{\"counters\":{\"a.b\":7}"));
        assert!(json.contains("\"count\":3"));
        assert!(json.contains("\"p50\":20"));
        assert!(json.contains("\"p;q\":{\"count\":2,\"inclusive_us\":9,\"exclusive_us\":4}"));
        assert!(!json.contains('.') || json.contains("a.b")); // no floats
    }

    #[test]
    fn merging_an_empty_histogram_is_the_identity() {
        // A worker that never touched a histogram reports it with
        // `count == 0`; merging that must not disturb the aggregate —
        // in particular it must not drag `min` down to the empty 0.
        let mut populated = hist(&[5, 10, 20]);
        let before = populated.clone();
        populated.merge(&HistogramSnapshot::default());
        assert_eq!(populated, before);

        // The mirror case: an empty aggregate adopts the populated
        // snapshot wholesale (same bytes a direct freeze would give).
        let mut empty = HistogramSnapshot::default();
        empty.merge(&before);
        assert_eq!(empty, before);

        // And empty + empty stays empty rather than inventing moments.
        let mut a = HistogramSnapshot::default();
        a.merge(&HistogramSnapshot::default());
        assert_eq!(a, HistogramSnapshot::default());
    }

    #[test]
    fn counter_merge_saturates_instead_of_wrapping() {
        let mut a = TelemetrySnapshot {
            counters: vec![("tx.sent".into(), u64::MAX - 1)],
            ..Default::default()
        };
        let b = TelemetrySnapshot {
            counters: vec![("tx.sent".into(), 5)],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.counter("tx.sent"), Some(u64::MAX));
        // Saturation is absorbing: further merges stay pinned.
        a.merge(&b);
        assert_eq!(a.counter("tx.sent"), Some(u64::MAX));

        // Histogram sums saturate the same way (counts still add).
        let mut h = HistogramSnapshot {
            count: 1,
            sum: u64::MAX - 10,
            min: 1,
            max: 1,
            buckets: vec![(0, 1)],
        };
        h.merge(&HistogramSnapshot {
            count: 1,
            sum: 100,
            min: 1,
            max: 1,
            buckets: vec![(0, 1)],
        });
        assert_eq!(h.sum, u64::MAX);
        assert_eq!(h.count, 2);
    }

    #[test]
    fn merging_a_zero_span_snapshot_preserves_the_aggregate() {
        // A Secondary that planned nothing reports a snapshot with no
        // spans at all; the merge must leave the Primary's spans intact
        // and invent no phantom entries.
        let mut a = TelemetrySnapshot {
            spans: vec![(
                "harness;commit".into(),
                SpanStat {
                    count: 5,
                    inclusive_us: 900,
                    exclusive_us: 400,
                },
            )],
            ..Default::default()
        };
        let before = a.clone();
        a.merge(&TelemetrySnapshot::default());
        assert_eq!(a, before);

        // A named-but-idle span (all-zero stats) merges as a no-op on
        // the numbers while unioning the name in.
        let idle = TelemetrySnapshot {
            spans: vec![
                ("harness;commit".into(), SpanStat::default()),
                ("harness;plan".into(), SpanStat::default()),
            ],
            ..Default::default()
        };
        a.merge(&idle);
        assert_eq!(a.spans.len(), 2);
        assert_eq!(a.spans[0].1.count, 5);
        assert_eq!(a.spans[0].1.inclusive_us, 900);
        assert_eq!(a.spans[1].1, SpanStat::default());
    }
}
