//! A statistics-reporting benchmark harness.
//!
//! Each `[[bench]]` target with `harness = false` builds a [`Bench`]
//! suite, registers closures, and calls [`Bench::finish`]. For every
//! benchmark the harness:
//!
//! 1. warms up and estimates the per-call cost,
//! 2. picks an iteration count so each timed sample is long enough to
//!    measure (~2 ms, or a single call for slow macrobenchmarks),
//! 3. records N samples and reports their mean, and p50/p99/min/max
//!    through [`diablo_sim::stats::Cdf`].
//!
//! Output is one human-readable line per benchmark; with
//! `DIABLO_BENCH_JSON` set, [`Bench::finish`] additionally writes
//! `BENCH_<suite>.json` — one JSON object per line — so runs can be
//! compared or plotted. A substring filter is taken from the first
//! non-flag CLI argument (`cargo bench -- mempool`) or from
//! `DIABLO_BENCH_FILTER`.

use std::time::Instant;

use diablo_sim::stats::Cdf;

pub use std::hint::black_box;

/// Default number of timed samples per benchmark.
pub const DEFAULT_SAMPLES: usize = 20;

/// Target duration of one timed sample, in nanoseconds.
const TARGET_SAMPLE_NS: f64 = 2_000_000.0;

/// Ceiling on iterations per sample.
const MAX_ITERS: u64 = 1_000_000;

/// One benchmark's aggregated measurements (nanoseconds per call).
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name, e.g. `mempool/admit_10k/bounded`.
    pub name: String,
    /// Mean ns per call.
    pub mean_ns: f64,
    /// Median ns per call.
    pub p50_ns: f64,
    /// 99th-percentile ns per call.
    pub p99_ns: f64,
    /// Fastest sample, ns per call.
    pub min_ns: f64,
    /// Slowest sample, ns per call.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations averaged within each sample.
    pub iters: u64,
}

impl BenchResult {
    /// Renders the result as one `BENCH_*.json` line.
    pub fn to_json_line(&self, suite: &str) -> String {
        format!(
            "{{\"suite\":\"{}\",\"name\":\"{}\",\"mean_ns\":{:.1},\"p50_ns\":{:.1},\
             \"p99_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1},\"samples\":{},\"iters\":{}}}",
            escape(suite),
            escape(&self.name),
            self.mean_ns,
            self.p50_ns,
            self.p99_ns,
            self.min_ns,
            self.max_ns,
            self.samples,
            self.iters
        )
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A benchmark suite under construction.
pub struct Bench {
    suite: String,
    samples: usize,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Bench {
    /// Starts a suite named `suite` (names the `BENCH_<suite>.json`
    /// output file), reading filter and sample-count overrides from the
    /// environment and CLI arguments.
    pub fn suite(suite: &str) -> Self {
        let filter = std::env::var("DIABLO_BENCH_FILTER")
            .ok()
            .or_else(|| std::env::args().skip(1).find(|a| !a.starts_with('-')));
        let samples = std::env::var("DIABLO_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_SAMPLES)
            .max(2);
        Bench {
            suite: suite.to_string(),
            samples,
            filter,
            results: Vec::new(),
        }
    }

    /// Sets the sample count for subsequent benchmarks (sticky, like a
    /// bench group's sample size). `DIABLO_BENCH_SAMPLES` wins.
    pub fn samples(&mut self, samples: usize) -> &mut Self {
        if std::env::var("DIABLO_BENCH_SAMPLES").is_err() {
            self.samples = samples.max(2);
        }
        self
    }

    fn skipped(&self, name: &str) -> bool {
        matches!(&self.filter, Some(f) if !name.contains(f.as_str()))
    }

    /// Benchmarks a closure: the whole closure body is timed.
    pub fn bench<T>(&mut self, name: &str, mut routine: impl FnMut() -> T) {
        if self.skipped(name) {
            return;
        }
        // Warmup and per-call cost estimate.
        let started = Instant::now();
        black_box(routine());
        let estimate_ns = started.elapsed().as_nanos().max(1) as f64;
        let iters = ((TARGET_SAMPLE_NS / estimate_ns) as u64).clamp(1, MAX_ITERS);

        let mut sample_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let started = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            sample_ns.push(started.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.record(name, sample_ns, iters);
    }

    /// Benchmarks a closure against fresh input from `setup` on every
    /// call; only the `routine` portion is timed.
    pub fn bench_batched<S, T>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> T,
    ) {
        if self.skipped(name) {
            return;
        }
        // Warmup (setup cost excluded from the estimate and samples).
        black_box(routine(setup()));

        let mut sample_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let input = setup();
            let started = Instant::now();
            black_box(routine(input));
            sample_ns.push(started.elapsed().as_nanos() as f64);
        }
        self.record(name, sample_ns, 1);
    }

    fn record(&mut self, name: &str, sample_ns: Vec<f64>, iters: u64) {
        let samples = sample_ns.len();
        let mean_ns = sample_ns.iter().sum::<f64>() / samples as f64;
        let cdf = Cdf::from_samples(sample_ns);
        let result = BenchResult {
            name: name.to_string(),
            mean_ns,
            p50_ns: cdf.quantile(0.5).unwrap_or(0.0),
            p99_ns: cdf.quantile(0.99).unwrap_or(0.0),
            min_ns: cdf.quantile(0.0).unwrap_or(0.0),
            max_ns: cdf.quantile(1.0).unwrap_or(0.0),
            samples,
            iters,
        };
        println!(
            "{:<48} mean {:>10}  p50 {:>10}  p99 {:>10}  ({} × {} iters)",
            result.name,
            fmt_ns(result.mean_ns),
            fmt_ns(result.p50_ns),
            fmt_ns(result.p99_ns),
            result.samples,
            result.iters
        );
        self.results.push(result);
    }

    /// Finishes the suite: writes `BENCH_<suite>.json` when
    /// `DIABLO_BENCH_JSON` names a directory (`1` means the current
    /// directory) and returns the collected results.
    pub fn finish(self) -> Vec<BenchResult> {
        if let Ok(dest) = std::env::var("DIABLO_BENCH_JSON") {
            let dir = if dest == "1" { ".".to_string() } else { dest };
            let path = format!("{dir}/BENCH_{}.json", self.suite);
            let lines: String = self
                .results
                .iter()
                .map(|r| r.to_json_line(&self.suite) + "\n")
                .collect();
            if let Err(e) = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, lines))
            {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                println!("wrote {path}");
            }
        }
        self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_reports() {
        let mut b = Bench::suite("selftest");
        b.filter = None; // the test binary's own CLI args are not a filter
        b.samples(3);
        b.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        b.bench_batched("batched", || vec![1u8; 64], |v| v.len());
        let results = b.finish();
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.mean_ns > 0.0);
            assert!(r.min_ns <= r.p50_ns && r.p50_ns <= r.max_ns);
            assert_eq!(r.samples, 3);
        }
    }

    #[test]
    fn json_lines_are_well_formed() {
        let r = BenchResult {
            name: "group/case".into(),
            mean_ns: 1234.5,
            p50_ns: 1200.0,
            p99_ns: 1300.0,
            min_ns: 1100.0,
            max_ns: 1400.0,
            samples: 20,
            iters: 100,
        };
        let line = r.to_json_line("suite");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"name\":\"group/case\""));
        assert!(line.contains("\"mean_ns\":1234.5"));
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut b = Bench::suite("selftest");
        b.filter = Some("nomatch".into());
        b.samples(2);
        b.bench("other", || 1u8);
        assert!(b.finish().is_empty());
    }
}
