//! A log-linear histogram, CDFs and per-second time series.
//!
//! These are the primitives the Diablo aggregator (paper §4, "Primary")
//! uses to turn per-transaction submit/commit timestamps into latency
//! quantiles, the latency CDFs of Figure 6 and throughput over time. The
//! averages and ratios themselves are `diablo_chains::Tally`'s.

use crate::time::SimTime;

/// Sub-bucket resolution of [`LogHistogram`]: 2^5 = 32 linear
/// sub-buckets per power-of-two octave, bounding the relative
/// quantization error at ~3%.
pub const LOG_HIST_SUB_BITS: u32 = 5;

const LOG_HIST_SUB: usize = 1 << LOG_HIST_SUB_BITS;

/// An HDR-style log-linear histogram over `u64` values.
///
/// Values below 32 land in exact unit buckets; above that, each
/// power-of-two octave is split into 32 linear sub-buckets, so any
/// recorded value is representable to within ~3% by its bucket floor.
/// The bucket layout is fixed (at most ~1,920 buckets for the full
/// `u64` range) and independent of the data, which makes merging two
/// histograms a plain bucket-wise addition — commutative and
/// associative, so a merged histogram is bit-identical no matter how
/// the observations were sharded across recorders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// [`LogHistogram::new`]: a derived `Default` starts `min` at 0.
impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v < LOG_HIST_SUB as u64 {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let shift = msb - LOG_HIST_SUB_BITS;
            (((msb - LOG_HIST_SUB_BITS + 1) << LOG_HIST_SUB_BITS) as usize)
                + ((v >> shift) as usize & (LOG_HIST_SUB - 1))
        }
    }

    /// The smallest value mapping to bucket `index` (inverse of
    /// [`Self::bucket_index`], used to report quantiles).
    pub fn bucket_floor(index: usize) -> u64 {
        if index < LOG_HIST_SUB {
            index as u64
        } else {
            let octave = index / LOG_HIST_SUB;
            let sub = index % LOG_HIST_SUB;
            ((LOG_HIST_SUB + sub) as u64) << (octave - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical observations.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest observation, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by nearest rank, reported as
    /// the floor of the bucket holding that rank (≤ ~3% below the true
    /// value). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        Self::quantile_of(self.iter_indexed(), self.count, self.min, self.max, q)
    }

    /// [`Self::quantile`] over a histogram given as its parts: `count`
    /// observations spanning `min..=max`, whose non-empty buckets
    /// `buckets` yields as ascending `(bucket_index, count)` pairs. The
    /// one nearest-rank walk, shared with frozen snapshots.
    pub fn quantile_of(
        buckets: impl IntoIterator<Item = (usize, u64)>,
        count: u64,
        min: u64,
        max: u64,
        q: f64,
    ) -> u64 {
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        if rank == 1 {
            return min;
        }
        if rank == count {
            return max;
        }
        let mut seen = 0u64;
        for (idx, c) in buckets {
            seen += c;
            if seen >= rank {
                // Clamp to the observed extremes so single-value
                // distributions report exactly that value.
                return Self::bucket_floor(idx).clamp(min, max);
            }
        }
        max
    }

    /// Merges another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterates `(bucket_index, count)` over non-empty buckets, for
    /// compact wire encodings.
    pub fn iter_indexed(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

/// An empirical cumulative distribution function over latency samples.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from raw samples (takes ownership, sorts once).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile (`q` in `[0, 1]`) using nearest-rank, or `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len()) - 1;
        Some(self.sorted[idx])
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&s| s <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Iterates `(value, cumulative_fraction)` pairs for plotting.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &v)| (v, (i + 1) as f64 / n))
    }

    /// Downsamples the CDF to at most `max_points` evenly spaced points.
    pub fn sampled_points(&self, max_points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || max_points == 0 {
            return Vec::new();
        }
        let n = self.sorted.len();
        if n <= max_points {
            return self.points().collect();
        }
        let mut out = Vec::with_capacity(max_points);
        for k in 1..=max_points {
            let i = k * n / max_points - 1;
            out.push((self.sorted[i], (i + 1) as f64 / n as f64));
        }
        out
    }
}

/// A per-second time series of counters, used for throughput-over-time
/// plots like the workload graphs in the paper's Table 2.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    buckets: Vec<u64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries {
            buckets: Vec::new(),
        }
    }

    /// Increments the bucket containing `at` by `n`.
    pub fn record_at(&mut self, at: SimTime, n: u64) {
        let idx = at.second_bucket() as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
    }

    /// The value in second-bucket `sec` (0 if out of range).
    pub fn get(&self, sec: usize) -> u64 {
        self.buckets.get(sec).copied().unwrap_or(0)
    }

    /// Number of second buckets covered.
    pub fn seconds(&self) -> usize {
        self.buckets.len()
    }

    /// Sum over all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Read-only view of the bucket values.
    pub fn values(&self) -> &[u64] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_quantiles_and_fractions() {
        let cdf = Cdf::from_samples(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(0.5), Some(3.0));
        assert_eq!(cdf.quantile(1.0), Some(5.0));
        assert!((cdf.fraction_below(3.0) - 0.6).abs() < 1e-12);
        assert_eq!(cdf.fraction_below(0.5), 0.0);
        assert_eq!(cdf.fraction_below(10.0), 1.0);
    }

    #[test]
    fn cdf_empty() {
        let cdf = Cdf::from_samples(Vec::new());
        assert!(cdf.is_empty());
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.fraction_below(1.0), 0.0);
    }

    #[test]
    fn cdf_sampled_points_monotone() {
        let cdf = Cdf::from_samples((0..1000).map(|i| i as f64).collect());
        let pts = cdf.sampled_points(10);
        assert_eq!(pts.len(), 10);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_exact_below_32() {
        for v in 0..32u64 {
            assert_eq!(LogHistogram::bucket_index(v), v as usize);
            assert_eq!(LogHistogram::bucket_floor(v as usize), v);
        }
    }

    #[test]
    fn log_histogram_floor_inverts_index() {
        for v in [
            32u64,
            33,
            63,
            64,
            65,
            100,
            1_000,
            1_000_000,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = LogHistogram::bucket_index(v);
            let floor = LogHistogram::bucket_floor(idx);
            assert!(floor <= v, "floor {floor} above value {v}");
            assert_eq!(
                LogHistogram::bucket_index(floor),
                idx,
                "floor of bucket {idx} maps back to a different bucket"
            );
            // Log-linear guarantee: floor within ~3.2% (1/32) of value.
            assert!((v - floor) as f64 <= v as f64 / 32.0 + 1.0);
        }
    }

    #[test]
    fn log_histogram_indices_monotone() {
        let mut prev = 0;
        for v in 0..10_000u64 {
            let idx = LogHistogram::bucket_index(v);
            assert!(idx >= prev, "index regressed at {v}");
            prev = idx;
        }
        prev = 0;
        for s in 0..64 {
            let idx = LogHistogram::bucket_index(1u64 << s);
            assert!(idx >= prev, "index regressed at 2^{s}");
            prev = idx;
        }
    }

    #[test]
    fn log_histogram_default_is_new() {
        assert_eq!(LogHistogram::default(), LogHistogram::new());
        let mut h = LogHistogram::default();
        h.record(5);
        h.record(9);
        assert_eq!(h.min(), 5);
    }

    #[test]
    fn log_histogram_quantiles() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((468..=500).contains(&p50), "p50 = {p50}");
        assert!((959..=990).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn log_histogram_merge_is_sharding_invariant() {
        let values: Vec<u64> = (0..500).map(|i| (i * i * 7919) % 100_000).collect();
        let mut whole = LogHistogram::new();
        for &v in &values {
            whole.record(v);
        }
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut c = LogHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            [&mut a, &mut b, &mut c][i % 3].record(v);
        }
        // Merge in a different order than recording.
        c.merge(&a);
        c.merge(&b);
        assert_eq!(c, whole);
    }

    #[test]
    fn log_histogram_single_value_quantiles_are_exact() {
        let mut h = LogHistogram::new();
        h.record_n(777, 10);
        assert_eq!(h.quantile(0.5), 777);
        assert_eq!(h.quantile(0.99), 777);
    }

    #[test]
    fn timeseries_buckets() {
        let mut ts = TimeSeries::new();
        ts.record_at(SimTime::from_millis(100), 1);
        ts.record_at(SimTime::from_millis(900), 2);
        ts.record_at(SimTime::from_secs(2), 5);
        assert_eq!(ts.get(0), 3);
        assert_eq!(ts.get(1), 0);
        assert_eq!(ts.get(2), 5);
        assert_eq!(ts.seconds(), 3);
        assert_eq!(ts.total(), 8);
    }
}
