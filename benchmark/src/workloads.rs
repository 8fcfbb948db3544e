//! The six workloads: what each runs as a user would run it
//! ([`run_once`]) and the same work staged call by call from the
//! benchmark's side of the public API ([`run_staged`]).
//!
//! Shapes are constants; the seed reaches the program only as
//! `RunOverlay.seed` / `Experiment::with_seed`.

use std::net::TcpListener;
use std::time::Instant;

use diablo_chains::tx::CallSel;
use diablo_chains::{
    chaos, Chain, ChainHarness, ChainParams, ExecMode, Experiment, FaultPlan, Payload, PlannedTx,
    RunConfig, RunOverlay, RunResult, StorageConfig,
};
use diablo_contracts::{calls, DApp};
use diablo_core::output::results_json_report;
use diablo_core::primary::run_with_setup;
use diablo_core::secondary::{declare_resources, plan_range};
use diablo_core::wire::{run_secondary, serve_primary};
use diablo_core::{adapters, BenchmarkOptions, BenchmarkSpec, Report, Setup};
use diablo_net::{DeploymentConfig, DeploymentKind, InstanceType};
use diablo_sim::{SimDuration, SimTime};
use diablo_telemetry::trace::TraceSample;
use diablo_telemetry::TelemetrySnapshot;
use diablo_workloads::traces;

use crate::spans::SpanLog;
use crate::verify::Commits;

/// `workloads/native-1000.yaml`: 4 clients × 250 TPS × 120 s.
const NATIVE_SPEC: &str = r#"
workloads:
  - number: 4
    client:
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 2000 } }
          load:
            0: 250
            120: 0
"#;
const NATIVE_NAME: &str = "native-1000";

/// 3 clients × 1,000 TPS × 60 s: more than Diem's pool admits.
const OVERLOAD_SPEC: &str = r#"
workloads:
  - number: 3
    client:
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 2000 } }
          load:
            0: 1000
            60: 0
"#;
const OVERLOAD_NAME: &str = "native-3000";
const OVERLOAD_CHAIN: Chain = Chain::Diem;
const OVERLOAD_DEPLOYMENT: DeploymentKind = DeploymentKind::Testnet;

/// Submission tick of `Experiment::run`'s planner (its `TICK_MS`).
const TICK_MS: u64 = 100;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload is in the set: the layer it loads and the ones
    /// it bypasses.
    pub why: &'static str,
    /// Transactions planned per iteration.
    pub planned: u64,
    /// How many of them must commit.
    pub commits: Commits,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    SpecNative,
    Model200n,
    ExecGaming,
    StoreVideo,
    TraceChaos,
    TcpOverload,
}

/// The workloads, in the order a full run interleaves them.
pub const ALL: [Workload; 6] = [
    Workload {
        name: "spec_native",
        why: "the `diablo run --output --stat` path: planning, results JSON and stats text do most of the work; VM, store and tx tracing none",
        planned: 120_000,
        commits: Commits::All,
        kind: Kind::SpecNative,
    },
    Workload {
        name: "model_200n",
        why: "200 geo-spread nodes: the consensus round model, QuorumModel and mempool dominate; no planning, wire or output, VM replayed from profile",
        planned: 100_000,
        commits: Commits::All,
        kind: Kind::Model200n,
    },
    Workload {
        name: "exec_gaming",
        why: "Exact execution of 60,000 Gaming calls: the VM and block executor do ~90%; store, wire and output are bypassed",
        planned: 60_000,
        commits: Commits::All,
        kind: Kind::ExecGaming,
    },
    Workload {
        name: "store_video",
        why: "state store on with a growing VideoSharing state: merkleize/persist do ~90% while the VM stays small",
        planned: 30_000,
        commits: Commits::All,
        kind: Kind::StoreVideo,
    },
    Workload {
        name: "trace_chaos",
        why: "tx lifecycle tracing on under partition, corruption and retries: trace emit and the deferral/retry/reject paths run",
        planned: 120_000,
        commits: Commits::AllButRejected,
        kind: Kind::TraceChaos,
    },
    Workload {
        name: "tcp_overload",
        why: "Primary and Secondary over a loopback socket: the only workload where wire encode/decode runs, with the mempool in its drop regime",
        planned: 180_000,
        commits: Commits::Shedding,
        kind: Kind::TcpOverload,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// A workload's inputs, generated from the seed.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// `run_with_setup` on the native spec, then JSON and stats.
    Local {
        /// The deployment under test.
        setup: Setup,
        /// Seed and planner-thread count.
        options: BenchmarkOptions,
    },
    /// One `Experiment`.
    Model(Experiment),
    /// `serve_primary` with one `run_secondary` thread.
    Tcp {
        /// Seed; one Secondary.
        options: BenchmarkOptions,
    },
}

fn seeded(seed: u64, secondaries: usize) -> BenchmarkOptions {
    BenchmarkOptions {
        run: RunOverlay {
            seed: Some(seed),
            ..RunOverlay::none()
        },
        secondaries,
    }
}

fn quorum_testnet(tps: f64, secs: u64, dapp: DApp, seed: u64) -> Experiment {
    Experiment::new(
        Chain::Quorum,
        DeploymentKind::Testnet,
        traces::constant(tps, secs),
    )
    .with_dapp(dapp)
    .with_seed(seed)
}

fn chaos_plan() -> FaultPlan {
    [
        ("partition", "0-2/3-9@30..60"),
        ("corrupt", "5%@30..60"),
        ("retry", "3x500/10000"),
    ]
    .into_iter()
    .fold(FaultPlan::builder(), |builder, (key, value)| {
        chaos::apply_directive(builder, key, value).expect("constant fault directive")
    })
    .build()
}

impl Workload {
    /// Generates the workload's inputs from `seed`.
    pub fn inputs(&self, seed: u64) -> Inputs {
        match self.kind {
            Kind::SpecNative => Inputs::Local {
                setup: Setup {
                    chain: Chain::Quorum,
                    config: DeploymentConfig::standard(DeploymentKind::Testnet),
                },
                options: seeded(seed, 2),
            },
            Kind::Model200n => {
                let config = DeploymentConfig::spread(
                    DeploymentKind::Consortium,
                    200,
                    InstanceType::C52xlarge,
                );
                let mut params = ChainParams::standard(Chain::RedBelly, &config);
                params.accounts = 10_000;
                Inputs::Model(
                    Experiment::new(
                        Chain::RedBelly,
                        DeploymentKind::Consortium,
                        traces::constant(5_000.0, 20),
                    )
                    .with_config(config)
                    .with_params(params)
                    .with_dapp(DApp::Exchange)
                    .with_seed(seed),
                )
            }
            Kind::ExecGaming => Inputs::Model(
                quorum_testnet(500.0, 120, DApp::Gaming, seed).with_exec_mode(ExecMode::Exact),
            ),
            Kind::StoreVideo => Inputs::Model(
                quorum_testnet(500.0, 60, DApp::VideoSharing, seed)
                    .with_exec_mode(ExecMode::Exact)
                    .with_storage(StorageConfig::default()),
            ),
            Kind::TraceChaos => Inputs::Model(
                quorum_testnet(1_000.0, 120, DApp::Exchange, seed)
                    .with_call(CallSel {
                        entry: calls::entry_index(DApp::Exchange, "buyApple")
                            .expect("the Exchange has a buyApple entry"),
                        args: [0, 0],
                        argc: 0,
                    })
                    .with_faults(chaos_plan())
                    .with_trace(TraceSample::Limit(TraceSample::DEFAULT_LIMIT)),
            ),
            Kind::TcpOverload => Inputs::Tcp {
                options: seeded(seed, 1),
            },
        }
    }
}

/// What one iteration produced.
#[derive(Debug)]
pub struct Product {
    /// Per-transaction records, blocks, storage report, trace.
    pub result: RunResult,
    /// The results JSON, on the workload that emits one.
    pub json: Option<String>,
    /// The `--stat` text, on the workload that prints one.
    pub stats: Option<String>,
}

impl Product {
    fn of(result: RunResult) -> Product {
        Product {
            result,
            json: None,
            stats: None,
        }
    }
}

/// Runs the Primary on this thread and one Secondary on another, over
/// one loopback connection.
fn tcp_session(options: &BenchmarkOptions) -> Result<Report, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    std::thread::scope(|scope| {
        let secondary = scope.spawn(|| run_secondary(&addr, "bench"));
        let report = serve_primary(
            &listener,
            OVERLOAD_CHAIN,
            OVERLOAD_DEPLOYMENT,
            OVERLOAD_SPEC,
            OVERLOAD_NAME,
            options,
            1,
        );
        // Closing the listener resets a connection the Primary never
        // accepted, so a failed Primary cannot leave the Secondary
        // blocked in a read.
        drop(listener);
        let stats = secondary
            .join()
            .map_err(|_| "secondary thread panicked".to_string())?;
        let report = report?;
        stats?;
        Ok(report)
    })
}

/// Runs one iteration the way a user runs it and returns its wall time
/// in milliseconds with what it produced. Cloning the inputs and
/// dropping the outputs stay outside the timed region.
pub fn run_once(inputs: &Inputs) -> Result<(f64, Product), String> {
    match inputs {
        Inputs::Local { setup, options } => {
            let start = Instant::now();
            let report = run_with_setup(setup, NATIVE_SPEC, NATIVE_NAME, options)?;
            let json = results_json_report(&report);
            let stats = report.stats_text();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            Ok((
                ms,
                Product {
                    result: report.result,
                    json: Some(json),
                    stats: Some(stats),
                },
            ))
        }
        Inputs::Model(experiment) => {
            let experiment = experiment.clone();
            let start = Instant::now();
            let result = experiment.run();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            Ok((ms, Product::of(result)))
        }
        Inputs::Tcp { options } => {
            let start = Instant::now();
            let report = tcp_session(options)?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            Ok((ms, Product::of(report.result)))
        }
    }
}

/// Everything the layer replays need to know about a staged iteration.
#[derive(Debug)]
pub struct Replay {
    /// The chain that ran.
    pub chain: Chain,
    /// Where its nodes ran.
    pub config: DeploymentConfig,
    /// The resolved run configuration.
    pub run: RunConfig,
    /// The deployed DApp, if any.
    pub dapp: Option<DApp>,
    /// The time-sorted submission plan the harness executed.
    pub plan: Vec<PlannedTx>,
    /// Whether plans and outcomes crossed the wire.
    pub wire: bool,
}

/// One staged iteration.
#[derive(Debug)]
pub struct Staged {
    /// What the iteration produced.
    pub product: Product,
    /// The program's wall-clocked telemetry of the iteration.
    pub telemetry: TelemetrySnapshot,
    /// Inputs of the layer replays.
    pub replay: Replay,
    /// The iteration's root span.
    pub iteration: usize,
    /// The stage span that contains the program's `harness.run`.
    pub harness_stage: usize,
    /// The still-open root span the layer replays record under.
    pub replay_root: usize,
}

/// `diablo_core::primary`'s client partitioning: `parts` contiguous
/// ranges, the first `clients % parts` one longer.
fn partition_clients(clients: u32, parts: usize) -> Vec<(u32, u32)> {
    let parts = parts.max(1) as u32;
    let (base, extra) = (clients / parts, clients % parts);
    let mut start = 0;
    (0..parts)
        .map(|p| {
            let len = base + u32::from(p < extra);
            start += len;
            (start - len, start)
        })
        .collect()
}

/// `Experiment::run`'s planner: each tick's transactions spread evenly,
/// senders round-robin over the chain's accounts.
fn plan_experiment(experiment: &Experiment, accounts: u64) -> Vec<PlannedTx> {
    let ticks = experiment.workload.ticks(TICK_MS);
    let mut plan = Vec::with_capacity(experiment.workload.total_txs() as usize);
    let mut seq = 0u64;
    for (k, &count) in ticks.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let start = SimTime::from_millis(k as u64 * TICK_MS);
        let spacing = SimDuration::from_micros(TICK_MS * 1000 / count);
        for i in 0..count {
            let payload = match experiment.dapp {
                Some(dapp) => Payload::Invoke {
                    dapp,
                    seq,
                    call: experiment.call,
                },
                None => Payload::Transfer,
            };
            plan.push(PlannedTx {
                at: start + spacing * i,
                sender: (seq % accounts) as u32,
                payload,
            });
            seq += 1;
        }
    }
    plan
}

/// Runs `f` as one stage: inside a span named `name` under `parent`.
fn stage<T>(log: &mut SpanLog, name: &str, parent: usize, f: impl FnOnce() -> T) -> T {
    log.time(name, parent, f).0
}

/// Runs one iteration stage by stage, each call into a layer's public
/// function inside its own span under the iteration's root span. The
/// caller has the telemetry clock on wall time.
pub fn run_staged(inputs: &Inputs, it: u32, log: &mut SpanLog) -> Result<Staged, String> {
    match inputs {
        Inputs::Local { setup, options } => staged_local(setup, options, it, log),
        Inputs::Model(experiment) => staged_model(experiment, it, log),
        Inputs::Tcp { options } => staged_tcp(options, it, log),
    }
}

/// `run_with_setup` → `results_json_report` → `stats_text`, staged.
fn staged_local(
    setup: &Setup,
    options: &BenchmarkOptions,
    it: u32,
    log: &mut SpanLog,
) -> Result<Staged, String> {
    let chain = setup.chain;
    let root = log.open("iteration", None, it);
    let spec = stage(log, "core.spec.parse", root, || {
        BenchmarkSpec::parse(NATIVE_SPEC).map_err(|e| e.to_string())
    })?;
    let ranges = partition_clients(spec.client_count(), options.secondaries);
    let (dapp, plans) = stage(log, "core.secondary.plan", root, || {
        diablo_telemetry::reset();
        let mut scratch = adapters::connector(chain);
        declare_resources(&spec, &mut scratch).map_err(|e| e.to_string())?;
        let plans: Vec<Result<Vec<PlannedTx>, String>> = std::thread::scope(|scope| {
            let planners: Vec<_> = ranges
                .iter()
                .map(|&range| {
                    let spec = &spec;
                    scope.spawn(move || {
                        let mut conn = adapters::connector(chain);
                        declare_resources(spec, &mut conn).map_err(|e| e.to_string())?;
                        plan_range(spec, range, &mut conn).map_err(|e| e.to_string())?;
                        Ok(conn.take_plan())
                    })
                })
                .collect();
            planners
                .into_iter()
                .map(|h| h.join().expect("planner thread panicked"))
                .collect()
        });
        let plans: Vec<Vec<PlannedTx>> = plans.into_iter().collect::<Result<_, String>>()?;
        Ok::<_, String>((scratch.sole_dapp(), plans))
    })?;
    let run = options.resolve(&spec);
    let merged = stage(log, "core.primary.merge", root, || {
        let mut merged: Vec<PlannedTx> = plans.into_iter().flatten().collect();
        merged.sort_by_key(|t| t.at);
        merged
    });
    let plan = merged.clone();
    let harness = stage(log, "contracts.build", root, || {
        ChainHarness::with_config(chain, setup.config.clone(), dapp, run.clone())
    })?;
    let harness_stage = log.open("chains.harness.run", Some(root), it);
    let result = harness.run(merged, NATIVE_NAME, spec.duration_secs() as f64);
    log.close(harness_stage);
    let telemetry = stage(log, "telemetry.snapshot", root, diablo_telemetry::snapshot);
    let report = Report {
        result,
        secondaries: ranges.len(),
        clients: spec.client_count(),
        telemetry,
        faults: run.faults.clone(),
        lost_secondaries: Vec::new(),
        live_diff: None,
    };
    let json = stage(log, "core.output.json", root, || {
        results_json_report(&report)
    });
    let stats = stage(log, "core.report.stats", root, || report.stats_text());
    log.close(root);
    let replay_root = log.open("replay", None, it);
    Ok(Staged {
        product: Product {
            result: report.result,
            json: Some(json),
            stats: Some(stats),
        },
        telemetry: report.telemetry,
        replay: Replay {
            chain,
            config: setup.config.clone(),
            run,
            dapp,
            plan,
            wire: false,
        },
        iteration: root,
        harness_stage,
        replay_root,
    })
}

/// `Experiment::run`, staged: build the harness, plan, run.
fn staged_model(experiment: &Experiment, it: u32, log: &mut SpanLog) -> Result<Staged, String> {
    let config = experiment
        .config
        .clone()
        .unwrap_or_else(|| DeploymentConfig::standard(experiment.deployment));
    // `Experiment::run` leaves the recorders as they are; the staged
    // snapshot must cover this iteration alone.
    diablo_telemetry::reset();
    let root = log.open("iteration", None, it);
    let harness = stage(log, "contracts.build", root, || {
        ChainHarness::with_config(
            experiment.chain,
            config.clone(),
            experiment.dapp,
            experiment.run.clone(),
        )
    })?;
    let planned = stage(log, "chains.experiment.plan", root, || {
        plan_experiment(experiment, u64::from(harness.accounts()))
    });
    let plan = planned.clone();
    let harness_stage = log.open("chains.harness.run", Some(root), it);
    let result = harness.run(
        planned,
        experiment.workload.name(),
        experiment.workload.duration_secs() as f64,
    );
    log.close(harness_stage);
    log.close(root);
    let replay_root = log.open("replay", None, it);
    Ok(Staged {
        product: Product::of(result),
        telemetry: diablo_telemetry::snapshot(),
        replay: Replay {
            chain: experiment.chain,
            config,
            run: experiment.run.clone(),
            dapp: experiment.dapp,
            plan,
            wire: false,
        },
        iteration: root,
        harness_stage,
        replay_root,
    })
}

/// The TCP session as one stage; the plan it shipped is rebuilt for
/// the replays the way the Secondary and the Primary built it.
fn staged_tcp(options: &BenchmarkOptions, it: u32, log: &mut SpanLog) -> Result<Staged, String> {
    let root = log.open("iteration", None, it);
    let harness_stage = log.open("core.wire.serve_primary", Some(root), it);
    let report = tcp_session(options)?;
    log.close(harness_stage);
    log.close(root);
    // Both ends ran in this process and share its recorders, so the
    // report's merge of "the Secondary's" snapshot into the Primary's
    // counted everything twice; a fresh snapshot has each span once.
    let telemetry = diablo_telemetry::snapshot();

    let replay_root = log.open("replay", None, it);
    let spec = BenchmarkSpec::parse(OVERLOAD_SPEC).map_err(|e| e.to_string())?;
    let mut conn = adapters::connector(OVERLOAD_CHAIN);
    declare_resources(&spec, &mut conn).map_err(|e| e.to_string())?;
    let plan = stage(log, "core.secondary.plan", replay_root, || {
        plan_range(&spec, (0, spec.client_count()), &mut conn).map_err(|e| e.to_string())?;
        Ok::<_, String>(conn.take_plan())
    })?;
    Ok(Staged {
        product: Product::of(report.result),
        telemetry,
        replay: Replay {
            chain: OVERLOAD_CHAIN,
            config: DeploymentConfig::standard(OVERLOAD_DEPLOYMENT),
            run: options.resolve(&spec),
            dapp: conn.sole_dapp(),
            plan,
            wire: true,
        },
        iteration: root,
        harness_stage,
        replay_root,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_matches_the_primary() {
        assert_eq!(partition_clients(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(partition_clients(4, 2), vec![(0, 2), (2, 4)]);
        assert_eq!(partition_clients(0, 3), vec![(0, 0), (0, 0), (0, 0)]);
    }
}
