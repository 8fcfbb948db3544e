//! The Primary role (§4).
//!
//! The Primary coordinates an experiment: it parses the benchmark and
//! blockchain configuration, deploys the declared resources, dispatches
//! workload shares to the Secondaries, launches the benchmark,
//! aggregates per-transaction results and reports statistics.
//!
//! [`run_local`] executes the whole pipeline in-process: every client's
//! cursor is merged straight into the run, so no plan is held (the
//! common path for the benchmark harness); `crate::wire` adds the
//! distributed Primary/Secondary mode over TCP. From the Secondaries'
//! plans to the [`Report`] both run the same code (`Prepared::{merge,
//! run, report}`): one order, one cut of killed Secondaries, one run and
//! one report.

use diablo_chains::{Chain, ChainHarness, Plan, RunConfig, RunOverlay, RunResult};
use diablo_contracts::DApp;
use diablo_net::{DeploymentConfig, DeploymentKind};
use diablo_telemetry::TelemetrySnapshot;

use crate::abstraction::{Merge, Source};
use crate::adapters;
use crate::report::Report;
use crate::secondary::{declare_resources, Planner};
use crate::spec::BenchmarkSpec;

/// Options of a benchmark run.
///
/// The run knobs are a [`RunOverlay`]: the *invocation's* layer of the
/// configuration, applied on top of the spec's own sections (and the
/// defaults below them) by the one resolution rule,
/// `RunConfig::layered(&[&spec.overlay(), &options.run])`. An unset
/// field defers to the spec; a set field wins; faults are additive.
#[derive(Debug, Clone)]
pub struct BenchmarkOptions {
    /// The invocation's run settings (the CLI's flags land here).
    pub run: RunOverlay,
    /// Number of Secondaries to dispatch across; at least 1.
    pub secondaries: usize,
}

impl Default for BenchmarkOptions {
    fn default() -> Self {
        BenchmarkOptions {
            run: RunOverlay::none(),
            secondaries: 2,
        }
    }
}

impl BenchmarkOptions {
    /// Resolves the effective configuration of a run under `spec`:
    /// `defaults ← spec ← this invocation`.
    pub fn resolve(&self, spec: &BenchmarkSpec) -> RunConfig {
        RunConfig::layered(&[&spec.overlay(), &self.run])
    }
}

/// Splits `clients` into exactly `parts` (at least 1) contiguous ranges.
///
/// When there are fewer clients than parts, the trailing ranges are
/// empty; `prepare` never asks for that ([`check_secondaries`]).
pub(crate) fn partition_clients(clients: u32, parts: usize) -> Vec<(u32, u32)> {
    let base = clients / parts as u32;
    let extra = clients % parts as u32;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts as u32 {
        let len = base + u32::from(p < extra);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

/// A Secondary count a spec cannot use: none at all, or more than the
/// spec has clients. Each Secondary runs a share of the clients, so one
/// with no clients would plan nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SecondaryCountError {
    secondaries: usize,
    clients: u32,
}

impl std::fmt::Display for SecondaryCountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (n, clients) = (self.secondaries, self.clients);
        if n == 0 {
            return write!(f, "a benchmark needs at least one secondary (--secondaries=0)");
        }
        write!(
            f,
            "{n} secondaries for {clients} clients: \
             each secondary runs a share of the clients, so at most {clients}"
        )
    }
}

/// Refuses a Secondary count `spec` cannot use, before anything is
/// spawned, accepted or planned for it.
pub(crate) fn check_secondaries(
    secondaries: usize,
    spec: &BenchmarkSpec,
) -> Result<(), SecondaryCountError> {
    let clients = spec.client_count();
    if secondaries == 0 || secondaries > clients as usize {
        return Err(SecondaryCountError {
            secondaries,
            clients,
        });
    }
    Ok(())
}

/// What every Primary establishes before it plans or accepts anything.
pub(crate) struct Prepared {
    /// The chain under test.
    pub chain: Chain,
    /// The parsed benchmark.
    pub spec: BenchmarkSpec,
    /// The clients split over the Secondaries.
    pub ranges: Vec<(u32, u32)>,
    /// The one layered resolution: defaults ← the spec's sections ← the
    /// invocation's overlay.
    pub run: RunConfig,
    /// The DApp the simulated backend deploys.
    pub dapp: Option<DApp>,
    /// The spec's behaviours, encoded once, to draw clients from.
    pub planner: Planner,
}

/// Parses `spec_text` and prepares its run over `secondaries` on a
/// deployment of `nodes` nodes, refusing a count [`check_secondaries`]
/// refuses, a fault plan that names a node past the deployment and a
/// spec that declares several DApps or an interaction the chain cannot
/// encode. Resets the telemetry recorder, so the report's snapshot
/// covers this benchmark.
pub(crate) fn prepare(
    chain: Chain,
    nodes: usize,
    spec_text: &str,
    secondaries: usize,
    options: &BenchmarkOptions,
) -> Result<Prepared, String> {
    let spec = BenchmarkSpec::parse(spec_text).map_err(|e| e.to_string())?;
    check_secondaries(secondaries, &spec).map_err(|e| e.to_string())?;
    let ranges = partition_clients(spec.client_count(), secondaries);
    let run = options.resolve(&spec);
    run.faults.check_nodes(nodes)?;
    diablo_telemetry::reset();
    let mut scratch = adapters::connector(chain);
    declare_resources(&spec, &mut scratch).map_err(|e| e.to_string())?;
    let dapp = scratch.sole_dapp();
    if dapp.is_none() && scratch.contract_count() > 1 {
        return Err("the simulated backend deploys one DApp per benchmark".to_string());
    }
    let planner = Planner::new(&spec, &mut scratch).map_err(|e| e.to_string())?;
    Ok(Prepared {
        chain,
        spec,
        ranges,
        run,
        dapp,
        planner,
    })
}

/// Makes every check a Primary makes before it plans or accepts
/// anything (the Secondary count, the fault plan's nodes, one DApp,
/// interactions the chain can encode) for a run of `spec_text` over
/// `secondaries` on `deployment`, so it can refuse before it binds a
/// port and announces it.
pub fn check(
    chain: Chain,
    deployment: DeploymentKind,
    spec_text: &str,
    secondaries: usize,
    options: &BenchmarkOptions,
) -> Result<(), String> {
    let nodes = DeploymentConfig::standard(deployment).node_count();
    prepare(chain, nodes, spec_text, secondaries, options).map(drop)
}

/// From the Secondaries' plans to the [`Report`], for both Primaries.
impl Prepared {
    /// The benchmark's plan, drawn as the run consumes it. `sources` is
    /// what the Secondaries planned, in order: `(si, source)` for each
    /// time-sorted source of Secondary `si`. A Secondary the fault plan
    /// kills at T submits nothing from T on, so its sources are cut
    /// there; the rest merges into the stable sort of the sources'
    /// concatenation. `origin(s, i)` hears, in plan order, that the next
    /// entry is entry `i` of source `s`.
    pub(crate) fn merge<S: Source, F: FnMut(usize, usize)>(
        &self,
        sources: impl IntoIterator<Item = (usize, S)>,
        origin: F,
    ) -> Merge<S, F> {
        let mut killed = 0;
        let sources = sources.into_iter().map(|(si, mut source)| {
            if let Some(at) = self.run.faults.kill_of_secondary(si) {
                killed += source.cut(at);
            }
            source
        });
        let plan = Merge::new(sources, origin);
        if killed > 0 {
            diablo_telemetry::counter!("secondary.killed_txs", killed);
        }
        plan
    }

    /// The in-process plan: every client's cursor, Secondary by
    /// Secondary, each Secondary's invocations numbered from 0.
    pub(crate) fn draw(&self) -> impl Plan + '_ {
        let ranges = self.ranges.iter().enumerate();
        let draws = ranges.flat_map(|(si, &(first, last))| {
            let mut seq = 0;
            let clients = (first..last).map(move |global| {
                let client = self.planner.client(global, &mut seq);
                client.expect("the ranges split the spec's clients").1
            });
            clients.flatten().map(move |draw| (si, draw))
        });
        self.merge(draws, |_, _| {})
    }

    /// Runs `plan` on `config`, or returns the result that says why the
    /// chain cannot run the DApp (the X marks of Figure 5).
    pub(crate) fn run(&self, config: DeploymentConfig, plan: impl Plan, name: &str) -> RunResult {
        let (chain, secs) = (self.chain, self.spec.duration_secs() as f64);
        match ChainHarness::with_config(chain, config, self.dapp, self.run.clone()) {
            Ok(harness) => harness.run(plan, name, secs),
            Err(reason) => RunResult::unable(chain, name, secs, reason),
        }
    }

    /// The report of `result` with `telemetry`. Secondary `si` is lost
    /// if it is `gone(si)` from the wire or the fault plan kills it.
    pub(crate) fn report(
        self,
        result: RunResult,
        telemetry: TelemetrySnapshot,
        gone: impl Fn(usize) -> bool,
    ) -> Report {
        let faults = self.run.faults;
        let secondaries = self.ranges.len();
        Report {
            result,
            secondaries,
            clients: self.spec.client_count(),
            telemetry,
            lost_secondaries: (0..secondaries)
                .filter(|&si| gone(si) || faults.kill_of_secondary(si).is_some())
                .collect(),
            faults,
            live_diff: None,
        }
    }
}

/// Runs a benchmark spec end-to-end against a simulated chain.
///
/// Returns the aggregated [`Report`]; chains unable to run the spec's
/// DApp produce a report whose result carries the reason (the X marks
/// of Figure 5).
pub fn run_local(
    chain: Chain,
    deployment: DeploymentKind,
    spec_text: &str,
    workload_name: &str,
    options: &BenchmarkOptions,
) -> Result<Report, String> {
    let setup = crate::setup::Setup {
        chain,
        config: diablo_net::DeploymentConfig::standard(deployment),
    };
    run_with_setup(&setup, spec_text, workload_name, options)
}

/// Runs a benchmark against an explicitly described deployment (the
/// paper's two-file invocation: setup + workload).
pub fn run_with_setup(
    setup: &crate::setup::Setup,
    spec_text: &str,
    workload_name: &str,
    options: &BenchmarkOptions,
) -> Result<Report, String> {
    let chain = setup.chain;
    let nodes = setup.config.node_count();
    let prepared = prepare(chain, nodes, spec_text, options.secondaries, options)?;
    let result = prepared.run(setup.config.clone(), prepared.draw(), workload_name);
    Ok(prepared.report(result, diablo_telemetry::snapshot(), |_| false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::tests::merge_runs;
    use crate::abstraction::{natural_runs, Connector, ConnectorError, Interaction};
    use crate::secondary::plan_range;
    use crate::spec::InteractionSpec;
    use diablo_chains::{FaultPlan, Payload, PlannedTx};
    use diablo_sim::SimTime;

    const SMALL_TRANSFER_SPEC: &str = r#"
let:
  - &acc { sample: !account { number: 200 } }
workloads:
  - number: 4
    client:
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
            from: *acc
          load:
            0: 50
            20: 0
"#;

    #[test]
    fn partitioning_covers_all_clients() {
        assert_eq!(partition_clients(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        // Fewer clients than parts: trailing assignments are empty, but
        // every Secondary gets one.
        assert_eq!(
            partition_clients(2, 5),
            vec![(0, 1), (1, 2), (2, 2), (2, 2), (2, 2)]
        );
        assert_eq!(partition_clients(0, 3), vec![(0, 0), (0, 0), (0, 0)]);
    }

    #[test]
    fn a_secondary_count_the_spec_cannot_use_is_refused() {
        let spec = BenchmarkSpec::parse(SMALL_TRANSFER_SPEC).unwrap();
        assert_eq!(check_secondaries(4, &spec), Ok(()));
        for secondaries in [0, 5, 1_000_000_000] {
            let err = check_secondaries(secondaries, &spec).unwrap_err();
            assert_eq!(err, SecondaryCountError { secondaries, clients: 4 });
        }
        let err = run_local(
            Chain::Quorum,
            DeploymentKind::Testnet,
            SMALL_TRANSFER_SPEC,
            "native-200",
            &BenchmarkOptions {
                secondaries: 1_000_000_000,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("1000000000 secondaries for 4 clients"), "{err}");
    }

    #[test]
    fn local_run_produces_a_report() {
        let report = run_local(
            Chain::Quorum,
            DeploymentKind::Testnet,
            SMALL_TRANSFER_SPEC,
            "native-200",
            &BenchmarkOptions::default(),
        )
        .unwrap();
        assert!(report.able());
        // 4 clients × 50 TPS × 20 s.
        assert_eq!(report.result.submitted(), 4 * 50 * 20);
        assert!(
            report.result.commit_ratio() > 0.9,
            "{}",
            report.result.summary()
        );
        assert_eq!(report.clients, 4);
        assert_eq!(report.secondaries, 2);
    }

    #[test]
    fn secondary_count_does_not_change_the_load() {
        let mut totals = Vec::new();
        for secondaries in [1, 2, 4] {
            let report = run_local(
                Chain::Diem,
                DeploymentKind::Testnet,
                SMALL_TRANSFER_SPEC,
                "native-200",
                &BenchmarkOptions {
                    secondaries,
                    ..Default::default()
                },
            )
            .unwrap();
            totals.push(report.result.submitted());
        }
        assert_eq!(totals[0], totals[1]);
        assert_eq!(totals[1], totals[2]);
    }

    #[test]
    fn dota_spec_on_unable_chain_reports_reason() {
        // The paper's dota spec invokes a DApp every chain *can* run;
        // use the uber contract instead to exercise the unable path.
        let spec = r#"
workloads:
  - number: 2
    client:
      behavior:
        - interaction: !invoke
            from: { sample: !account { number: 10 } }
            contract: { sample: !contract { name: "uber" } }
            function: "checkDistance(1, 1)"
          load:
            0: 5
            5: 0
"#;
        let report = run_local(
            Chain::Solana,
            DeploymentKind::Testnet,
            spec,
            "uber-tiny",
            &BenchmarkOptions::default(),
        )
        .unwrap();
        assert!(!report.able());
        assert!(report
            .result
            .unable_reason
            .as_deref()
            .unwrap()
            .contains("budget exceeded"));
    }

    #[test]
    fn spec_function_selection_reaches_the_chain() {
        // Single-stock NASDAQ stream: every transaction buys Apple.
        let spec = r#"
workloads:
  - number: 2
    client:
      behavior:
        - interaction: !invoke
            from: { sample: !account { number: 50 } }
            contract: { sample: !contract { name: "nasdaq" } }
            function: "buyApple"
          load:
            0: 50
            10: 0
"#;
        let report = run_local(
            Chain::Quorum,
            DeploymentKind::Testnet,
            spec,
            "apple-only",
            &BenchmarkOptions {
                run: RunOverlay {
                    exec_mode: Some(diablo_chains::ExecMode::Exact),
                    ..RunOverlay::none()
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.able());
        assert!(
            report.result.commit_ratio() > 0.9,
            "{}",
            report.result.summary()
        );
    }

    #[test]
    fn unknown_function_is_rejected_at_encode_time() {
        let spec = r#"
workloads:
  - number: 2
    client:
      behavior:
        - interaction: !invoke
            from: { sample: !account { number: 10 } }
            contract: { sample: !contract { name: "dota" } }
            function: "teleport(9)"
          load:
            0: 5
            5: 0
"#;
        let err = run_local(
            Chain::Quorum,
            DeploymentKind::Testnet,
            spec,
            "bad-fn",
            &BenchmarkOptions::default(),
        )
        .unwrap_err();
        assert!(err.contains("no function `teleport`"), "{err}");
    }

    /// Refusals the chain adapter makes when it encodes a behaviour's
    /// interaction, with their messages: raised when the cursors are
    /// built, before the run.
    #[test]
    fn encode_time_refusals_keep_their_messages() {
        let spec = |call: &str| {
            format!(
                "
workloads:
  - number: 2
    client:
      behavior:
        - interaction: !invoke
            from: {{ sample: !account {{ number: 10 }} }}
            contract: {{ sample: !contract {{ name: \"dota\" }} }}
            function: \"{call}\"
          load:
            0: 5
            5: 0
"
            )
        };
        let rows = [
            ("update(1, 2, 3)", "function `update` called with 3 arguments (max 2)"),
            ("update(1, 4294967296)", "argument 4294967296 out of range for `update`"),
        ];
        for (call, message) in rows {
            let options = BenchmarkOptions::default();
            let err = run_local(Chain::Quorum, DeploymentKind::Testnet, &spec(call), "bad", &options)
                .unwrap_err();
            assert!(err.contains(message), "{call}: {err}");
        }
        // `run_local` deploys every contract its spec names before it
        // builds a cursor, so only a connector that was never told of
        // the contract refuses it as not deployed.
        let parsed = BenchmarkSpec::parse(&spec("update(1, 1)")).unwrap();
        let err = crate::secondary::plan_range(&parsed, (0, 2), &mut adapters::connector(chain()))
            .unwrap_err();
        assert_eq!(err.to_string(), "contract `dota` not deployed");
    }

    fn chain() -> Chain {
        Chain::Quorum
    }

    /// The planner before cursors, kept as their oracle: per client, per
    /// behaviour, per tick, an interaction built and encoded, pushed on
    /// the client's vector; invocations numbered over the range; the
    /// clients merged into one sorted vector (`take_plan`).
    fn materialised_range(
        spec: &BenchmarkSpec,
        range: (u32, u32),
    ) -> Result<Vec<PlannedTx>, ConnectorError> {
        let mut conn = adapters::connector(chain());
        declare_resources(spec, &mut conn)?;
        let (mut clients, mut seq) = (Vec::new(), 0);
        for global in range.0..range.1 {
            let mut base = 0;
            let group = (spec.workloads.iter())
                .find(|group| {
                    base += group.number;
                    global < base
                })
                .ok_or(ConnectorError::UnknownClient { client: global })?;
            let mut plan = Vec::new();
            for (bi, behavior) in group.behaviors.iter().enumerate() {
                let curve = behavior.to_workload("client");
                let mut counter = (global as u64)
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(bi as u64)
                    % 100_000;
                for (tick, count) in curve.tick_counts() {
                    for at in diablo_workloads::spread(tick, count, global) {
                        let interaction = match &behavior.interaction {
                            InteractionSpec::Transfer { accounts, amount } => {
                                let pool = (*accounts).max(2) as u64;
                                Interaction::Transfer {
                                    from: (counter % pool) as u32,
                                    to: ((counter + 1) % pool) as u32,
                                    amount: *amount,
                                }
                            }
                            InteractionSpec::Invoke {
                                accounts,
                                contract,
                                function,
                                args,
                            } => Interaction::Invoke {
                                from: (counter % (*accounts).max(1) as u64) as u32,
                                contract: contract.clone(),
                                function: function.clone(),
                                args: args.clone(),
                            },
                        };
                        counter += 1;
                        let mut tx = conn.encode(&interaction, at)?.planned;
                        if let Payload::Invoke { seq: s, .. } = &mut tx.payload {
                            (*s, seq) = (seq, seq + 1);
                        }
                        plan.push(tx);
                    }
                }
            }
            clients.push(plan);
        }
        let runs: Vec<&[PlannedTx]> = clients.iter().flat_map(|c| natural_runs(c)).collect();
        let mut plan = Vec::new();
        merge_runs(&runs, |r, i| plan.push(runs[r][i]));
        Ok(plan)
    }

    /// A random spec from a tape of draws: one to three groups of one to
    /// three clients, each with one to three behaviours — transfers, or
    /// invocations of the spec's one contract with and without an
    /// explicit function and arguments — over a piecewise curve; one to
    /// four Secondaries; up to two kills, before, inside or after the
    /// workload.
    fn random_run(tape: &[u64]) -> (String, usize, FaultPlan) {
        let mut tape = tape.iter().cycle();
        let mut next = |n: u64| tape.next().expect("a non-empty tape") % n;
        let (contract, calls): (&str, &[&str]) = match next(3) {
            0 => ("dota", &["update(1, 1)", "update", "update(-7)", ""]),
            1 => ("nasdaq", &["buyApple", "checkStock(3)", ""]),
            _ => ("fifa", &["add(1, 2)", "get(5)", ""]),
        };
        let rates = ["1", "3", "7.5", "10", "33.3", "120", "0"];
        let (mut text, mut clients) = (String::from("workloads:\n"), 0);
        for _ in 0..=next(3) {
            let number = 1 + next(3);
            clients += number;
            text += &format!("  - number: {number}\n    client:\n      behavior:\n");
            for _ in 0..=next(3) {
                let from = format!("from: {{ sample: !account {{ number: {} }} }}", 1 + next(40));
                text += &match next(2) {
                    0 => format!("        - interaction: !transfer\n            {from}\n"),
                    _ => format!(
                        "        - interaction: !invoke\n            {from}\n            \
                         contract: {{ sample: !contract {{ name: \"{contract}\" }} }}\n            \
                         function: \"{}\"\n",
                        calls[next(calls.len() as u64) as usize]
                    ),
                };
                text += "          load:\n";
                let mut at = 0;
                for _ in 0..=next(3) {
                    text += &format!("            {at}: {}\n", rates[next(7) as usize]);
                    at += 1 + next(3);
                }
                text += &format!("            {at}: 0\n");
            }
        }
        let secondaries = 1 + next(clients.min(4)) as usize;
        let mut faults = FaultPlan::builder();
        for _ in 0..next(3) {
            let at = SimTime::from_micros(next(10_000_001));
            faults = faults.kill_secondary(next(secondaries as u64) as usize, at);
        }
        (text, secondaries, faults.build())
    }

    #[test]
    fn the_drawn_plan_is_the_materialised_plan() {
        use diablo_testkit::gen::{u64s, vecs};
        use diablo_testkit::{prop_assert_eq, Property};

        let tapes = vecs(u64s(0..=u64::MAX), 1..=48);
        // Kills case 1: every client's invocations numbered from 0 (the
        // range's base not advanced); case 4: the tick a kill cuts
        // counted whole.
        Property::new("the_drawn_plan_is_the_materialised_plan")
            .cases(96)
            .check(&tapes, |tape| {
                let (text, secondaries, faults) = random_run(tape);
                let run = RunOverlay {
                    faults: faults.clone(),
                    ..RunOverlay::none()
                };
                let options = BenchmarkOptions { run, secondaries };
                let prepared = prepare(chain(), 10, &text, secondaries, &options)
                    .map_err(|e| format!("{e}\n{text}"))?;

                // Each Secondary's range, materialised and then merged
                // and cut as the Primary did before the cursors.
                let mut ranges = Vec::new();
                for &range in &prepared.ranges {
                    let plan = materialised_range(&prepared.spec, range).map_err(|e| e.to_string())?;
                    let mut conn = adapters::connector(chain());
                    declare_resources(&prepared.spec, &mut conn).map_err(|e| e.to_string())?;
                    plan_range(&prepared.spec, range, &mut conn).map_err(|e| e.to_string())?;
                    prop_assert_eq!(conn.take_plan(), plan.clone());
                    ranges.push(plan);
                }
                let cut: Vec<&[PlannedTx]> = (ranges.iter().enumerate())
                    .map(|(si, plan)| match faults.kill_of_secondary(si) {
                        Some(at) => &plan[..plan.partition_point(|tx| tx.at < at)],
                        None => &plan[..],
                    })
                    .collect();
                let mut want = Vec::new();
                merge_runs(&cut, |r, i| want.push(cut[r][i]));

                let drawn = prepared.draw();
                let ticks: Vec<(u64, u64)> = drawn.ticks().collect();
                let got: Vec<PlannedTx> = drawn.collect();
                prop_assert_eq!(got.len(), want.len());
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(ticks, want.into_iter().ticks().collect::<Vec<_>>());
                Ok(())
            });
    }

    #[test]
    fn bad_spec_is_an_error() {
        let err = run_local(
            Chain::Quorum,
            DeploymentKind::Testnet,
            "nonsense: true\n",
            "x",
            &BenchmarkOptions::default(),
        )
        .unwrap_err();
        assert!(err.contains("workloads"));
    }
}
