//! Cross-crate property tests, on the in-tree `diablo-testkit` harness.

use diablo::chains::{Chain, Experiment, FaultPlan, RetryPolicy};
use diablo::core::yaml;
use diablo::net::DeploymentKind;
use diablo::workloads::{Workload, TICK_MS};
use diablo_testkit::gen::{ascii_strings, f64s, from_slice, u64s, usizes, vecs};
use diablo_testkit::{prop_assert, prop_assert_eq, Property};

/// The YAML-subset parser never panics on arbitrary input.
#[test]
fn yaml_parser_is_total() {
    Property::new("yaml_parser_is_total")
        .cases(64)
        .check(&ascii_strings(0..=200), |input| {
            let _ = yaml::parse(input);
            Ok(())
        });
}

/// The expansion of a curve before it was held as breakpoints, kept as
/// the reference: one rate per second, each second's rate shared out
/// over its ten ticks through a carry.
fn dense_ticks(rates: &[f64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(rates.len() * 10);
    let mut acc = 0.0;
    for &rate in rates {
        let per_tick = rate / 10.0;
        for _ in 0..10 {
            acc += per_tick;
            let whole = acc.floor();
            out.push(whole as u64);
            acc -= whole;
        }
    }
    out
}

/// `tick_counts` yields exactly the non-empty ticks of the dense
/// per-second expansion, whether the curve was given second by second
/// or as breakpoints, and `ticks`, `total_txs` and the per-second rates
/// agree with it. Segments are constant rates, zero rates, long zero
/// rates (up to 10,000 s) or ramps that change every second.
#[test]
fn tick_counts_equal_the_dense_per_second_expansion() {
    // Kills case 1: a carry that restarts at every segment.
    let segment = (u64s(1..=50), f64s(0.0..2_000.0), from_slice(&[0u8, 0, 1, 2, 3]));
    Property::new("tick_counts_equal_the_dense_expansion").cases(64).check(
        &vecs(segment, 1..=12),
        |segments| {
            let (mut rates, mut points) = (Vec::new(), Vec::new());
            for &(len, rate, shape) in segments {
                let (len, rate) = match shape {
                    1 => (len, 0.0),
                    2 => (len * 200, 0.0),
                    _ => (len, rate),
                };
                for i in 0..len {
                    let ramp = if shape == 3 { i as f64 * 0.37 } else { 0.0 };
                    if i == 0 || shape == 3 {
                        points.push((rates.len() as u64, rate + ramp));
                    }
                    rates.push(rate + ramp);
                }
            }
            let dense = dense_ticks(&rates);
            let expected: Vec<(u64, u64)> =
                (0u64..).zip(dense.iter().copied()).filter(|t| t.1 > 0).collect();
            let per_second = Workload::from_rates("trace", rates.clone());
            let breakpoints = Workload::piecewise("curve", &points, rates.len() as u64);
            for w in [&per_second, &breakpoints] {
                prop_assert_eq!(w.tick_counts().collect::<Vec<_>>(), expected.clone());
                prop_assert_eq!(w.ticks(TICK_MS), dense.clone());
                prop_assert_eq!(w.total_txs(), dense.iter().sum::<u64>());
                prop_assert!(w.rates().eq(rates.iter().copied()), "per-second rates differ");
            }
            Ok(())
        },
    );
}

/// Whatever the load and seed, a chain run conserves transactions:
/// every submitted transaction ends in exactly one terminal state and
/// committed ≤ submitted. (Chain runs are comparatively expensive;
/// keep the case count low.)
#[test]
fn chain_runs_conserve_transactions() {
    Property::new("chain_runs_conserve_transactions").cases(8).check(
        &(f64s(10.0..2_000.0), u64s(0..=999), usizes(0..=5)),
        |(tps, seed, chain_idx)| {
            let chain = Chain::ALL[*chain_idx];
            let workload = diablo::workloads::traces::constant(*tps, 10);
            let expected = workload.total_txs();
            let r = Experiment::new(chain, DeploymentKind::Testnet, workload)
                .with_seed(*seed)
                .run();
            prop_assert_eq!(r.submitted(), expected);
            prop_assert!(r.committed() <= r.submitted());
            // Latencies are non-negative and only committed txs have them.
            let lat_count = r
                .records
                .iter()
                .filter(|rec| rec.latency_secs().is_some())
                .count();
            prop_assert_eq!(lat_count as u64, r.committed());
            for rec in &r.records {
                if let Some(l) = rec.latency_secs() {
                    prop_assert!(l >= 0.0);
                }
            }
            Ok(())
        },
    );
}

/// A fault plan that declares no faults — even one built through the
/// fluent builder and carrying a retry policy — leaves a pinned-seed
/// run byte-identical to a run with no plan at all: the fault path must
/// draw no randomness while idle, whatever the chain, load or seed.
#[test]
fn empty_fault_plans_change_nothing() {
    Property::new("empty_fault_plans_change_nothing").cases(8).check(
        &(
            f64s(50.0..1_000.0),
            u64s(0..=999),
            usizes(0..=5),
            u64s(1..=5),
        ),
        |(tps, seed, chain_idx, attempts)| {
            let chain = Chain::ALL[*chain_idx];
            let workload = diablo::workloads::traces::constant(*tps, 8);
            let baseline = Experiment::new(chain, DeploymentKind::Testnet, workload.clone())
                .with_seed(*seed)
                .run();
            let plan = FaultPlan::builder()
                .retry(RetryPolicy {
                    attempts: *attempts as u32,
                    ..Default::default()
                })
                .build();
            prop_assert!(plan.is_empty(), "a retry policy alone is not a fault");
            let faulted = Experiment::new(chain, DeploymentKind::Testnet, workload)
                .with_seed(*seed)
                .with_faults(plan)
                .run();
            prop_assert_eq!(
                diablo::core::output::results_json(&baseline),
                diablo::core::output::results_json(&faulted),
                "an empty fault plan perturbed the run"
            );
            Ok(())
        },
    );
}

/// The simulator never commits a transaction before it was submitted,
/// whatever the offered load or chain (inverted chains break rate
/// monotonicity under collapse, but causality always holds).
#[test]
fn commits_never_precede_submission() {
    Property::new("commits_never_precede_submission").cases(8).check(
        &(f64s(100.0..5_000.0), usizes(0..=5)),
        |(tps, chain_idx)| {
            let chain = Chain::ALL[*chain_idx];
            let r = Experiment::new(
                chain,
                DeploymentKind::Testnet,
                diablo::workloads::traces::constant(*tps, 8),
            )
            .run();
            for rec in &r.records {
                if let Some(d) = rec.decided {
                    prop_assert!(d >= rec.submitted);
                }
            }
            Ok(())
        },
    );
}
