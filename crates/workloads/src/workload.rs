//! The workload type: a submission-rate curve held as its breakpoints,
//! and the one expansion of that curve into timed submissions.

use core::fmt;

use diablo_sim::{SimDuration, SimTime};

/// The submission tick. Every planner expands a curve into ticks of
/// this length, and the chain simulation submits on the same
/// boundaries.
pub const TICK_MS: u64 = 100;

/// Ticks per second of the curve.
const TICKS_PER_SEC: u64 = 1000 / TICK_MS;

/// A workload: the number of transactions per second that Diablo
/// submits, constant over each whole-second segment of the experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    /// `(start_second, rate)` runs: each rate holds from its start to
    /// the next start, the last one to `end`. Starts strictly increase
    /// from 0, and neighbouring rates differ.
    segments: Vec<(u64, f64)>,
    /// Experiment duration in whole seconds.
    end: u64,
}

impl Workload {
    /// Builds a workload from explicit per-second rates.
    ///
    /// # Panics
    ///
    /// Panics on negative rates.
    pub fn from_rates(name: impl Into<String>, rates: impl IntoIterator<Item = f64>) -> Self {
        let mut w = Workload {
            name: name.into(),
            segments: Vec::new(),
            end: 0,
        };
        for rate in rates {
            w.push(w.end, rate);
            w.end += 1;
        }
        w
    }

    /// Builds a workload from a piecewise-constant load specification in
    /// the style of the paper's configuration language: `(start_second,
    /// tps)` breakpoints, ending with an implicit stop at `end_second`.
    ///
    /// ```
    /// use diablo_workloads::Workload;
    /// // The paper's §4 example: 4432 TPS for 50 s, then 4438 TPS until
    /// // second 120.
    /// let w = Workload::piecewise("dota-client", &[(0, 4432.0), (50, 4438.0)], 120);
    /// assert_eq!(w.duration_secs(), 120);
    /// assert_eq!(w.rate_at(0), 4432.0);
    /// assert_eq!(w.rate_at(49), 4432.0);
    /// assert_eq!(w.rate_at(50), 4438.0);
    /// assert_eq!(w.rate_at(120), 0.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if breakpoints are not strictly increasing or start after
    /// `end_second`, or on negative rates.
    pub fn piecewise(name: impl Into<String>, points: &[(u64, f64)], end_second: u64) -> Self {
        assert!(!points.is_empty(), "need at least one breakpoint");
        assert!(
            points.windows(2).all(|w| w[0].0 < w[1].0),
            "breakpoints must increase"
        );
        assert!(points[0].0 == 0, "the first breakpoint must be at second 0");
        assert!(
            points.last().expect("non-empty").0 < end_second,
            "breakpoints must precede end"
        );
        let mut w = Workload {
            name: name.into(),
            segments: Vec::with_capacity(points.len()),
            end: end_second,
        };
        for &(start, rate) in points {
            w.push(start, rate);
        }
        w
    }

    /// Appends the rate that holds from `start` on.
    fn push(&mut self, start: u64, rate: f64) {
        assert!(rate >= 0.0, "rates must be non-negative");
        if self.segments.last().is_none_or(|&(_, last)| last != rate) {
            self.segments.push((start, rate));
        }
    }

    /// The workload name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Experiment duration in whole seconds.
    pub fn duration_secs(&self) -> usize {
        self.end as usize
    }

    /// Submission rate during second `sec` (0 outside the experiment).
    pub fn rate_at(&self, sec: usize) -> f64 {
        let sec = sec as u64;
        if sec >= self.end {
            return 0.0;
        }
        let at = self.segments.partition_point(|&(start, _)| start <= sec);
        self.segments[at - 1].1
    }

    /// The rates second by second, from second 0.
    pub fn rates(&self) -> impl Iterator<Item = f64> + '_ {
        self.runs()
            .flat_map(|(start, end, rate)| std::iter::repeat_n(rate, (end - start) as usize))
    }

    /// The segments as `(start_second, end_second, rate)`.
    fn runs(&self) -> impl Iterator<Item = (u64, u64, f64)> + '_ {
        let ends = self.segments.iter().skip(1).map(|&(start, _)| start);
        let ends = ends.chain(std::iter::once(self.end));
        self.segments
            .iter()
            .zip(ends)
            .map(|(&(start, rate), end)| (start, end, rate))
    }

    /// Peak one-second rate.
    pub fn peak_tps(&self) -> f64 {
        self.segments
            .iter()
            .map(|&(_, rate)| rate)
            .fold(0.0, f64::max)
    }

    /// Mean rate over the experiment, summed second by second.
    pub fn mean_tps(&self) -> f64 {
        if self.end == 0 {
            0.0
        } else {
            self.rates().sum::<f64>() / self.end as f64
        }
    }

    /// Total transactions submitted over the experiment: the sum of
    /// [`Workload::tick_counts`].
    pub fn total_txs(&self) -> u64 {
        self.tick_counts().map(|(_, count)| count).sum()
    }

    /// The non-empty submission ticks as `(tick, count)`, tick `k`
    /// covering `[k, k + 1) × TICK_MS`. Each tick adds its share of the
    /// rate to a carry and submits the carry's whole part, so the sum
    /// over any prefix is within one transaction of the curve's
    /// integral. A zero-rate segment is skipped in one step: adding 0
    /// leaves the carry, which stays in `[0, 1)`, where it was.
    pub fn tick_counts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let busy = self.runs().filter(|&(_, _, rate)| rate > 0.0);
        let ticks = busy.flat_map(|(start, end, rate)| {
            let per_tick = rate / TICKS_PER_SEC as f64;
            (start * TICKS_PER_SEC..end * TICKS_PER_SEC).map(move |tick| (tick, per_tick))
        });
        let counts = ticks.scan(0.0, |carry: &mut f64, (tick, per_tick)| {
            *carry += per_tick;
            let whole = carry.floor();
            *carry -= whole;
            Some((tick, whole as u64))
        });
        counts.filter(|&(_, count)| count > 0)
    }

    /// Every tick's count, empty ticks included, indexed by tick.
    ///
    /// # Panics
    ///
    /// Panics if `tick_ms` is not [`TICK_MS`].
    pub fn ticks(&self, tick_ms: u64) -> Vec<u64> {
        assert_eq!(tick_ms, TICK_MS, "the tick is {TICK_MS} ms");
        let mut out = vec![0; (self.end * TICKS_PER_SEC) as usize];
        for (tick, count) in self.tick_counts() {
            out[tick as usize] = count;
        }
        out
    }
}

/// The submission instants of tick `tick`'s `count` transactions,
/// evenly spaced from the tick's start. `client` shifts them by
/// `(client × 100,000 / count) mod (100,000 / count)` µs: by nothing
/// when `count` divides the 100,000 µs tick, and by less than `client`
/// µs otherwise, so the clients of one group submit at the same or
/// nearly the same instants rather than interleaving.
pub fn spread(tick: u64, count: u64, client: u32) -> impl Iterator<Item = SimTime> {
    let tick_us = TICK_MS * 1000;
    let start = SimTime::from_millis(tick * TICK_MS);
    let spacing = SimDuration::from_micros(tick_us / count.max(1));
    let offset = (u64::from(client) * tick_us / count.max(1)) % spacing.as_micros().max(1);
    let offset = SimDuration::from_micros(offset);
    (0..count).map(move |i| start + offset + spacing * i)
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}s, mean {:.0} TPS, peak {:.0} TPS, {} txs",
            self.name,
            self.duration_secs(),
            self.mean_tps(),
            self.peak_tps(),
            self.total_txs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_second_rates_are_run_length_segments() {
        let w = Workload::from_rates("x", vec![5.0, 5.0, 0.0, 0.0, 7.0]);
        assert_eq!(w.segments, vec![(0, 5.0), (2, 0.0), (4, 7.0)]);
        assert_eq!(w.rates().collect::<Vec<_>>(), vec![5.0, 5.0, 0.0, 0.0, 7.0]);
        assert_eq!((w.rate_at(1), w.rate_at(3), w.rate_at(4)), (5.0, 0.0, 7.0));
    }

    #[test]
    fn an_idle_billion_seconds_expands_to_nothing() {
        let w = Workload::piecewise("idle", &[(0, 0.0)], 1_000_000_000);
        assert_eq!(w.tick_counts().next(), None);
        assert_eq!(w.total_txs(), 0);
        let w = Workload::piecewise("tail", &[(0, 0.0), (999_999_999, 10.0)], 1_000_000_000);
        let first = w.tick_counts().next();
        assert_eq!(first, Some((9_999_999_990, 1)));
        assert_eq!(w.total_txs(), 10);
    }

    #[test]
    fn spread_places_client_zero_on_the_tick() {
        let at: Vec<u64> = spread(3, 4, 0).map(SimTime::as_micros).collect();
        assert_eq!(at, vec![300_000, 325_000, 350_000, 375_000]);
        let at: Vec<u64> = spread(3, 4, 1).map(SimTime::as_micros).collect();
        assert_eq!(at, vec![300_000, 325_000, 350_000, 375_000]);
        let at: Vec<u64> = spread(0, 7, 2).map(SimTime::as_micros).take(3).collect();
        assert_eq!(at, vec![1, 14_286, 28_571]);
    }

    #[test]
    fn stats() {
        let w = Workload::from_rates("x", vec![100.0, 300.0, 200.0]);
        assert_eq!(w.peak_tps(), 300.0);
        assert!((w.mean_tps() - 200.0).abs() < 1e-12);
        assert_eq!(w.total_txs(), 600);
    }

    #[test]
    #[should_panic(expected = "the tick is 100 ms")]
    fn bad_tick_panics() {
        Workload::from_rates("x", vec![1.0]).ticks(300);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_panics() {
        Workload::from_rates("x", vec![-1.0]);
    }
}
