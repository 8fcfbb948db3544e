//! The experiment driver.
//!
//! One [`Experiment`] = one chain × one deployment × one workload, the
//! unit every figure of the paper is built from: it builds the
//! [`ChainHarness`] and runs it on transactions drawn from the workload
//! curve as the run consumes them.

use diablo_contracts::DApp;
use diablo_net::{DeploymentConfig, DeploymentKind};
use diablo_store::StorageConfig;
use diablo_workloads::{spread, Workload};

use crate::chain::Chain;
use crate::config::RunConfig;
use crate::exec::{Concurrency, ExecMode};
use crate::faults::FaultPlan;
use crate::harness::{ChainHarness, Plan, PlannedTx};
use crate::params::ChainParams;
use crate::records::RunResult;
use crate::tx::{CallSel, Payload};

/// One benchmark run: chain, deployment, workload, knobs.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The chain under test.
    pub chain: Chain,
    /// The deployment scenario.
    pub deployment: DeploymentKind,
    /// The submission-rate curve.
    pub workload: Workload,
    /// DApp to invoke; `None` = native transfers.
    pub dapp: Option<DApp>,
    /// The run knobs (seed, execution, faults, storage, …), shared with
    /// every other entry point through [`crate::RunConfig`].
    pub run: RunConfig,
    /// Explicit deployment override (custom setups); `None` = the
    /// standard configuration of `deployment`.
    pub config: Option<DeploymentConfig>,
    /// Explicit function selection applied to every invocation (the
    /// spec's `function: "..."`); `None` = default per-DApp rotation.
    pub call: Option<CallSel>,
}

impl Experiment {
    /// A native-transfer experiment with default knobs.
    pub fn new(chain: Chain, deployment: DeploymentKind, workload: Workload) -> Self {
        Experiment {
            chain,
            deployment,
            workload,
            dapp: None,
            run: RunConfig::default(),
            config: None,
            call: None,
        }
    }

    /// Invokes `dapp` instead of native transfers.
    pub fn with_dapp(mut self, dapp: DApp) -> Self {
        self.dapp = Some(dapp);
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.run.seed = seed;
        self
    }

    /// Overrides the execution mode.
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.run.exec_mode = mode;
        self
    }

    /// Overrides the block-commit concurrency.
    pub fn with_concurrency(mut self, concurrency: Concurrency) -> Self {
        self.run.concurrency = concurrency;
        self
    }

    /// Overrides the chain parameters (ablation studies).
    pub fn with_params(mut self, params: ChainParams) -> Self {
        self.run.params = Some(params);
        self
    }

    /// Overrides the drain window.
    pub fn with_grace(mut self, secs: u64) -> Self {
        self.run.grace_secs = secs;
        self
    }

    /// Injects faults (crashes, network slowdowns).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.run.faults = faults;
        self
    }

    /// Runs on an explicit deployment instead of the standard one
    /// (custom setup files, odd node counts).
    pub fn with_config(mut self, config: DeploymentConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Selects an explicit function (and literal arguments) for every
    /// invocation, e.g. a single NASDAQ stock's `buy*` entry.
    pub fn with_call(mut self, call: CallSel) -> Self {
        self.call = Some(call);
        self
    }

    /// Enables the append-only state store: every committed block runs
    /// the execute → merkleize → persist → prune pipeline under
    /// `config`.
    pub fn with_storage(mut self, config: StorageConfig) -> Self {
        self.run.storage = Some(config);
        self
    }

    /// Enables per-transaction lifecycle tracing under the given
    /// sampling budget.
    pub fn with_trace(mut self, sample: diablo_telemetry::trace::TraceSample) -> Self {
        self.run.trace = Some(sample);
        self
    }

    /// Runs the experiment to completion.
    pub fn run(self) -> RunResult {
        let workload_name = self.workload.name().to_string();
        let workload_secs = self.workload.duration_secs() as f64;
        let options = self.run.clone();
        // An unbuildable or unrunnable DApp makes the whole chain
        // "unable" (Figure 5's X marks, Figure 2's missing bars).
        let config = self
            .config
            .clone()
            .unwrap_or_else(|| DeploymentConfig::standard(self.deployment));
        let harness = match ChainHarness::with_config(self.chain, config, self.dapp, options) {
            Ok(h) => h,
            Err(reason) => {
                return RunResult::unable(self.chain, workload_name, workload_secs, reason);
            }
        };
        let plan = self.plan(harness.accounts());
        harness.run(plan, &workload_name, workload_secs)
    }

    /// The submission plan over `accounts` signing accounts, drawn as the
    /// run consumes it: each of the curve's ticks spreads its
    /// transactions evenly, and senders go round-robin over the
    /// accounts. Invocation `seq` numbers count from 0 over the plan.
    pub fn plan(&self, accounts: u32) -> impl Plan + '_ {
        let accounts = u64::from(accounts);
        let (dapp, call) = (self.dapp, self.call);
        let draws = self.workload.tick_counts();
        let draws = draws.flat_map(|(tick, count)| spread(tick, count, 0));
        let draws = draws.zip(0u64..).map(move |(at, seq)| PlannedTx {
            at,
            sender: (seq % accounts) as u32,
            payload: match dapp {
                Some(dapp) => Payload::Invoke { dapp, seq, call },
                None => Payload::Transfer,
            },
        });
        Drawn {
            workload: &self.workload,
            draws,
        }
    }
}

/// A plan drawn from a workload curve: its ticks are the curve's.
struct Drawn<'w, I> {
    workload: &'w Workload,
    draws: I,
}

impl<I: Iterator<Item = PlannedTx>> Iterator for Drawn<'_, I> {
    type Item = PlannedTx;

    fn next(&mut self) -> Option<PlannedTx> {
        self.draws.next()
    }
}

impl<I: Iterator<Item = PlannedTx>> Plan for Drawn<'_, I> {
    fn ticks(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.workload.tick_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_workloads::traces;

    fn quick(chain: Chain, tps: f64, secs: u64) -> RunResult {
        Experiment::new(chain, DeploymentKind::Testnet, traces::constant(tps, secs))
            .with_grace(30)
            .run()
    }

    #[test]
    fn quorum_commits_a_light_load() {
        let r = quick(Chain::Quorum, 100.0, 30);
        assert_eq!(r.submitted(), 3_000);
        assert!(r.commit_ratio() > 0.95, "{}", r.summary());
        assert!(r.avg_latency_secs() < 5.0, "{}", r.summary());
    }

    #[test]
    fn diem_is_fast_locally() {
        let r = quick(Chain::Diem, 500.0, 30);
        assert!(r.commit_ratio() > 0.95, "{}", r.summary());
        assert!(r.avg_latency_secs() < 2.0, "{}", r.summary());
    }

    #[test]
    fn solana_latency_is_dominated_by_confirmations() {
        let r = quick(Chain::Solana, 100.0, 30);
        assert!(r.commit_ratio() > 0.9, "{}", r.summary());
        // 30 confirmations × 400 ms ⇒ at least 12 s.
        assert!(r.avg_latency_secs() >= 12.0, "{}", r.summary());
    }

    #[test]
    fn ethereum_is_slow_and_throttled() {
        let r = quick(Chain::Ethereum, 1000.0, 60);
        // 8M gas / 21k per transfer / 15 s period ≈ 25.3 TPS ceiling.
        assert!(r.avg_throughput() < 200.0, "{}", r.summary());
    }

    #[test]
    fn avalanche_throttles_throughput() {
        let r = quick(Chain::Avalanche, 1000.0, 60);
        assert!(r.avg_throughput() < 400.0, "{}", r.summary());
        assert!(r.committed() > 0, "{}", r.summary());
    }

    #[test]
    fn same_seed_same_result() {
        let a = quick(Chain::Algorand, 200.0, 20);
        let b = quick(Chain::Algorand, 200.0, 20);
        assert_eq!(a.committed(), b.committed());
        assert_eq!(a.avg_latency_secs(), b.avg_latency_secs());
    }

    #[test]
    fn different_seed_different_jitter() {
        let w = traces::constant(200.0, 20);
        let a = Experiment::new(Chain::Algorand, DeploymentKind::Testnet, w.clone())
            .with_seed(1)
            .run();
        let b = Experiment::new(Chain::Algorand, DeploymentKind::Testnet, w)
            .with_seed(2)
            .run();
        // Both commit, but the latency profile differs with the jitter.
        assert!(a.committed() > 0 && b.committed() > 0);
        assert_ne!(a.avg_latency_secs(), b.avg_latency_secs());
    }

    #[test]
    fn mobility_unruns_on_hard_budget_chains() {
        for chain in [Chain::Algorand, Chain::Diem, Chain::Solana] {
            let r = Experiment::new(chain, DeploymentKind::Testnet, traces::constant(10.0, 5))
                .with_dapp(DApp::Mobility)
                .run();
            assert!(!r.able(), "{chain} must be unable to run mobility");
            assert!(r
                .unable_reason
                .as_deref()
                .unwrap_or("")
                .contains("budget exceeded"));
        }
    }

    #[test]
    fn mobility_runs_on_geth_chains() {
        let r = Experiment::new(
            Chain::Quorum,
            DeploymentKind::Testnet,
            traces::constant(50.0, 20),
        )
        .with_dapp(DApp::Mobility)
        .run();
        assert!(r.able());
        assert!(r.committed() > 0, "{}", r.summary());
    }

    #[test]
    fn youtube_is_unsupported_on_algorand() {
        let r = Experiment::new(
            Chain::Algorand,
            DeploymentKind::Testnet,
            traces::constant(10.0, 5),
        )
        .with_dapp(DApp::VideoSharing)
        .run();
        assert!(!r.able());
        assert!(r.unable_reason.as_deref().unwrap_or("").contains("128"));
    }

    #[test]
    fn exact_mode_counts_match_contract_state() {
        let r = Experiment::new(
            Chain::Diem,
            DeploymentKind::Testnet,
            traces::constant(50.0, 10),
        )
        .with_dapp(DApp::WebService)
        .with_exec_mode(ExecMode::Exact)
        .run();
        assert!(r.committed() > 0);
        // Committed adds all executed for real; counts are consistent.
        assert_eq!(r.submitted(), 500);
    }

    #[test]
    fn parallel_concurrency_reproduces_serial_runs() {
        // End to end: the same seeded experiment must produce identical
        // per-transaction records whether committed blocks execute
        // serially or across 4 workers.
        let run = |concurrency| {
            Experiment::new(
                Chain::Quorum,
                DeploymentKind::Testnet,
                traces::constant(80.0, 10),
            )
            .with_dapp(DApp::Exchange)
            .with_exec_mode(ExecMode::Exact)
            .with_concurrency(concurrency)
            .with_grace(30)
            .run()
        };
        let serial = run(Concurrency::Serial);
        let parallel = run(Concurrency::Parallel(4));
        assert_eq!(serial.records.len(), parallel.records.len());
        for (s, p) in serial.records.iter().zip(&parallel.records) {
            assert_eq!(s.submitted, p.submitted);
            assert_eq!(s.decided, p.decided);
            assert_eq!(s.status, p.status);
        }
        assert_eq!(serial.blocks, parallel.blocks);
    }

    #[test]
    fn optimistic_concurrency_reproduces_serial_runs() {
        // Same end-to-end check for the optimistic executor, on the
        // gaming DApp whose dynamic footprints the static scheduler
        // cannot parallelize — here speculation really does the work.
        let run = |concurrency| {
            Experiment::new(
                Chain::Quorum,
                DeploymentKind::Testnet,
                traces::constant(80.0, 10),
            )
            .with_dapp(DApp::Gaming)
            .with_exec_mode(ExecMode::Exact)
            .with_concurrency(concurrency)
            .with_grace(30)
            .run()
        };
        let serial = run(Concurrency::Serial);
        for concurrency in [Concurrency::Optimistic(1), Concurrency::Optimistic(4)] {
            let optimistic = run(concurrency);
            assert_eq!(serial.records.len(), optimistic.records.len());
            for (s, o) in serial.records.iter().zip(&optimistic.records) {
                assert_eq!(s.submitted, o.submitted);
                assert_eq!(s.decided, o.decided);
                assert_eq!(s.status, o.status);
            }
            assert_eq!(serial.blocks, optimistic.blocks);
        }
    }
}
