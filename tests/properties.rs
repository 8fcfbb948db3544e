//! Cross-crate property tests, on the in-tree `diablo-testkit` harness.

use diablo::chains::chaos::apply_directive;
use diablo::chains::tx::CallSel;
use diablo::chains::{
    Chain, ChainHarness, Experiment, FaultPlan, Payload, PlannedTx, RetryPolicy, RunResult,
};
use diablo::contracts::DApp;
use diablo::core::yaml;
use diablo::net::{DeploymentConfig, DeploymentKind};
use diablo::telemetry::trace::TraceSample;
use diablo::workloads::{spread, traces, Workload, TICK_MS};
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

/// `Experiment::run`'s planner before it drew its plan, kept as the
/// reference: the whole curve materialised into one vector.
fn materialised_plan(experiment: &Experiment, accounts: u64) -> Vec<PlannedTx> {
    let mut plan = Vec::with_capacity(experiment.workload.total_txs() as usize);
    for (tick, count) in experiment.workload.tick_counts() {
        for (at, seq) in spread(tick, count, 0).zip(plan.len() as u64..) {
            let payload = match experiment.dapp {
                Some(dapp) => Payload::Invoke {
                    dapp,
                    seq,
                    call: experiment.call,
                },
                None => Payload::Transfer,
            };
            plan.push(PlannedTx {
                at,
                sender: (seq % accounts) as u32,
                payload,
            });
        }
    }
    plan
}

/// The drawn plan is the materialised one, entry for entry — instant,
/// sender and payload — over a constant, a trace and a burst curve, for
/// transfers, the DApp's call rotation and an explicit call, at the
/// standard and at Diem's scaled-down account counts.
#[test]
fn the_drawn_plan_is_the_materialised_plan() {
    let curves = [
        traces::constant(333.0, 7),
        traces::gafam(),
        traces::nasdaq_burst("burst", 12_345.0, 7.0),
    ];
    let call = CallSel {
        entry: 1,
        args: [7, 0],
        argc: 1,
    };
    for curve in curves {
        let transfers = Experiment::new(Chain::Quorum, DeploymentKind::Testnet, curve);
        let rotation = transfers.clone().with_dapp(DApp::Exchange);
        let explicit = rotation.clone().with_call(call);
        for experiment in [transfers, rotation, explicit] {
            for accounts in [2_000, 130] {
                let oracle = materialised_plan(&experiment, u64::from(accounts));
                let drawn: Vec<PlannedTx> = experiment.plan(accounts).collect();
                assert_eq!(drawn.len(), oracle.len(), "{}", experiment.workload);
                assert!(
                    drawn == oracle,
                    "{}: the drawn plan differs",
                    experiment.workload
                );
            }
        }
    }
}

/// Two runs are the same run: records, blocks and traces.
fn assert_same_run(a: &RunResult, b: &RunResult) {
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(
            (x.submitted, x.decided, x.status),
            (y.submitted, y.decided, y.status)
        );
    }
    assert_eq!(a.blocks, b.blocks);
    assert_eq!(a.trace, b.trace);
}

/// A traced chaos run without grace gives the same result whether the
/// harness draws its plan or is handed the materialised one. With the
/// workload's own window (`Experiment::run`) the plan ends inside it;
/// with a shorter window the deadline cuts the plan, so the tracer's
/// id count and the offered load of the cut seconds come from the
/// curve's ticks on one side and from the vector on the other.
#[test]
fn a_drawn_plan_runs_as_the_materialised_one() {
    let faults = [
        ("partition", "0-2/3-9@5..10"),
        ("corrupt", "5%@5..10"),
        ("retry", "3x500/10000"),
    ]
    .into_iter()
    .fold(FaultPlan::builder(), |builder, (key, value)| {
        apply_directive(builder, key, value).expect("constant fault directive")
    })
    .build();
    let experiment = Experiment::new(
        Chain::Quorum,
        DeploymentKind::Testnet,
        traces::constant(300.0, 20),
    )
    .with_dapp(DApp::Exchange)
    .with_faults(faults)
    .with_trace(TraceSample::All)
    .with_grace(0)
    .with_seed(7);
    let harness = || {
        let config = DeploymentConfig::standard(experiment.deployment);
        ChainHarness::with_config(
            experiment.chain,
            config,
            experiment.dapp,
            experiment.run.clone(),
        )
        .expect("Quorum runs the Exchange")
    };
    let accounts = harness().accounts();
    let oracle = materialised_plan(&experiment, u64::from(accounts));
    let name = experiment.workload.name().to_string();

    let drawn = experiment.clone().run();
    let handed = harness().run(oracle.clone(), &name, 20.0);
    assert_eq!(drawn.records.len(), oracle.len());
    // Compiled-out telemetry (`--cfg diablo_telemetry_off`) records no
    // traces; records and blocks are compared either way.
    assert_same_run(&drawn, &handed);

    let drawn = harness().run(experiment.plan(accounts), &name, 12.0);
    let handed = harness().run(oracle, &name, 12.0);
    // Ticks 0 ..= 120 fired: everything planned before 12.1 s.
    assert_eq!(drawn.records.len(), 300 * 12 + 30);
    assert_same_run(&drawn, &handed);
}
