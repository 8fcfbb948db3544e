//! Synthetic workload generators beyond constant rates.
//!
//! The paper's related work drives blockchains with synthetic curves
//! (Caliper's rate controllers, Blockbench's micro-benchmarks,
//! Chainhammer's continuous hammering); these generators let Diablo-rs
//! users build diurnal curves and Poisson-jittered variants of any base
//! curve without leaving the workload type.

use diablo_sim::DetRng;

use crate::workload::Workload;

/// A diurnal (sinusoidal) curve: mean `mean`, amplitude `amplitude`,
/// one full cycle per `period_secs`.
pub fn diurnal(mean: f64, amplitude: f64, period_secs: u64, secs: u64) -> Workload {
    assert!(amplitude <= mean, "rates must stay non-negative");
    assert!(period_secs > 0, "diurnal needs a period");
    let rates = (0..secs).map(|s| {
        let phase = s as f64 / period_secs as f64 * std::f64::consts::TAU;
        mean + amplitude * phase.sin()
    });
    Workload::from_rates("diurnal", rates)
}

/// Poisson-jitters a base curve: each second's rate is resampled as a
/// Poisson draw with the base rate as its mean (clients are independent
/// in the real world; exact per-second counts are a simplification).
pub fn poissonize(base: &Workload, rng: &mut DetRng) -> Workload {
    let rates = base.rates().map(|rate| poisson(rng, rate) as f64);
    Workload::from_rates(format!("{}-poisson", base.name()), rates)
}

/// Draws a Poisson-distributed count with the given mean (Knuth's
/// algorithm for small means, normal approximation for large ones).
fn poisson(rng: &mut DetRng, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 64.0 {
        // Normal approximation with continuity correction.
        let x = rng.normal(mean, mean.sqrt());
        return x.round().max(0.0) as u64;
    }
    let limit = (-mean).exp();
    let mut product = rng.next_f64();
    let mut count = 0;
    while product > limit {
        count += 1;
        product *= rng.next_f64();
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_oscillates_around_the_mean() {
        let w = diurnal(1_000.0, 500.0, 60, 120);
        assert!(
            (w.mean_tps() - 1_000.0).abs() < 20.0,
            "mean {}",
            w.mean_tps()
        );
        assert!(w.peak_tps() > 1_400.0);
        let min = w.rates().fold(f64::INFINITY, f64::min);
        assert!(min >= 499.0, "min {min}");
    }

    #[test]
    fn poissonize_preserves_the_mean_roughly() {
        let base = crate::traces::constant(200.0, 500);
        let mut rng = DetRng::new(5);
        let jittered = poissonize(&base, &mut rng);
        assert_eq!(jittered.duration_secs(), 500);
        let mean = jittered.mean_tps();
        assert!((mean - 200.0).abs() < 5.0, "mean {mean}");
        // It actually varies.
        assert!(jittered.peak_tps() > 200.0);
    }

    #[test]
    fn poisson_small_and_large_means() {
        let mut rng = DetRng::new(6);
        let n = 20_000;
        for mean in [0.5, 5.0, 200.0] {
            let total: u64 = (0..n).map(|_| poisson(&mut rng, mean)).sum();
            let empirical = total as f64 / n as f64;
            assert!(
                (empirical - mean).abs() / mean < 0.06,
                "mean {mean}: empirical {empirical}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }
}
