//! The Primary role (§4).
//!
//! The Primary coordinates an experiment: it parses the benchmark and
//! blockchain configuration, deploys the declared resources, dispatches
//! workload shares to the Secondaries, launches the benchmark,
//! aggregates per-transaction results and reports statistics.
//!
//! [`run_local`] executes the whole pipeline in-process, planning client
//! shares on parallel worker threads (the common path for the benchmark
//! harness); `crate::wire` adds the distributed Primary/Secondary mode
//! over TCP. From the Secondaries' plans in hand to the [`Report`] both
//! run the same code (`Prepared::{merge, run, report}`): one order, one
//! cut of killed Secondaries, one run and one report.

use diablo_chains::{Chain, ChainHarness, PlannedTx, RunConfig, RunOverlay, RunResult};
use diablo_contracts::DApp;
use diablo_net::{DeploymentConfig, DeploymentKind};
use diablo_telemetry::TelemetrySnapshot;

use crate::abstraction::merge_runs;
use crate::adapters;
use crate::report::Report;
use crate::secondary::{declare_resources, plan_range};
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
}

/// Parses `spec_text` and prepares its run over `secondaries` on a
/// deployment of `nodes` nodes, refusing a count [`check_secondaries`]
/// refuses, a fault plan that names a node past the deployment and a
/// spec that declares several DApps. Resets the telemetry recorder, so
/// the report's snapshot covers this benchmark.
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
    Ok(Prepared {
        chain,
        spec,
        ranges,
        run,
        dapp,
    })
}

/// Makes every check a Primary makes before it plans or accepts
/// anything (the Secondary count, the fault plan's nodes, one DApp) for
/// a run of `spec_text` over `secondaries` on `deployment`, so it can
/// refuse before it binds a port and announces it.
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

/// From the Secondaries' plans in hand to the [`Report`], for both Primaries.
impl Prepared {
    /// The benchmark's plan. `runs` is what the Secondaries planned, in
    /// order: `(si, run)` for each time-sorted run of Secondary `si`, as
    /// long as it can be (a `take_plan`, or `natural_runs`). A Secondary
    /// the fault plan kills at T submits nothing from T on, so its runs
    /// are cut there; the rest merges into the stable sort of the runs'
    /// concatenation. `origin(k)` hears, in plan order, that the next
    /// entry is entry `k` of that concatenation.
    pub(crate) fn merge<'a>(
        &self,
        runs: impl IntoIterator<Item = (usize, &'a [PlannedTx])>,
        mut origin: impl FnMut(usize),
    ) -> Vec<PlannedTx> {
        // Each run, cut, and where it starts in the concatenation.
        let (mut cut, mut starts, mut planned) = (Vec::new(), Vec::new(), 0);
        for (si, run) in runs {
            let kill = self.run.faults.kill_of_secondary(si);
            let kept = kill.map_or(run.len(), |at| run.partition_point(|tx| tx.at < at));
            cut.push(&run[..kept]);
            starts.push(planned);
            planned += run.len();
        }
        let kept = cut.iter().map(|run| run.len()).sum();
        if kept < planned {
            diablo_telemetry::counter!("secondary.killed_txs", (planned - kept) as u64);
        }
        let mut plan = Vec::with_capacity(kept);
        merge_runs(&cut, |r, i| {
            plan.push(cut[r][i]);
            origin(starts[r] + i);
        });
        plan
    }

    /// Runs `plan` on `config`, or returns the result that says why the
    /// chain cannot run the DApp (the X marks of Figure 5).
    pub(crate) fn run(
        &self,
        config: DeploymentConfig,
        plan: Vec<PlannedTx>,
        name: &str,
    ) -> RunResult {
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

    // Dispatch planning to the Secondaries (worker threads).
    let plans: Vec<Result<Vec<PlannedTx>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = prepared
            .ranges
            .iter()
            .map(|&range| {
                let spec = &prepared.spec;
                scope.spawn(move || {
                    let mut conn = adapters::connector(chain);
                    declare_resources(spec, &mut conn).map_err(|e| e.to_string())?;
                    plan_range(spec, range, &mut conn).map_err(|e| e.to_string())?;
                    Ok(conn.take_plan())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("planner thread panicked"))
            .collect()
    });
    let plans: Vec<Vec<PlannedTx>> = plans.into_iter().collect::<Result<_, _>>()?;

    // A `take_plan` is one sorted run.
    let plan = prepared.merge(plans.iter().map(Vec::as_slice).enumerate(), |_| {});
    // The run starts with the merged plan, not with the shares besides.
    drop(plans);
    let result = prepared.run(setup.config.clone(), plan, workload_name);
    Ok(prepared.report(result, diablo_telemetry::snapshot(), |_| false))
}

#[cfg(test)]
mod tests {
    use super::*;

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
