//! The harness boundary between the Diablo framework and a simulated
//! chain.
//!
//! `diablo-core`'s Secondaries plan transactions (presigning, §4); the
//! harness draws those planned transactions, in time order, into the
//! chain simulation and returns one [`crate::TxRecord`] per transaction
//! it submitted. [`crate::Experiment`] is a thin wrapper on top that
//! draws its transactions straight from a workload curve.

use diablo_contracts::DApp;
use diablo_net::{DeploymentConfig, DeploymentKind, NetworkModel, QuorumModel};
use diablo_sim::{SimDuration, SimTime};
use diablo_workloads::TICK_MS;

use crate::config::RunConfig;
use crate::exec::ExecutionEngine;
use crate::params::ChainParams;
use crate::records::RunResult;
use crate::sim::ChainSim;
use crate::tx::Payload;
use crate::Chain;

/// One transaction planned by a Diablo Secondary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedTx {
    /// Scheduled submission instant.
    pub at: SimTime,
    /// Signing account.
    pub sender: u32,
    /// What the transaction does.
    pub payload: Payload,
}

/// A time-ordered submission plan, drawn one entry at a time.
///
/// Before it draws the first entry, the harness reads the plan's
/// [`Plan::ticks`]: they size the run (its ids, its number of submission
/// ticks) and give the offered load of every second, which a block
/// proposal reads for its whole second, ahead of the submissions.
pub trait Plan: Iterator<Item = PlannedTx> {
    /// The plan's non-empty submission ticks as `(tick, count)`, in
    /// drawing order: tick `k` covers `[k, k + 1) × TICK_MS`. Read
    /// before the first entry is drawn.
    fn ticks(&self) -> impl Iterator<Item = (u64, u64)> + '_;
}

/// A `Vec` plan is scanned where it lies: `as_slice` reads its entries
/// without copying them.
impl Plan for std::vec::IntoIter<PlannedTx> {
    fn ticks(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let tick = |tx: &PlannedTx| tx.at.as_micros() / (TICK_MS * 1000);
        self.as_slice()
            .chunk_by(move |a, b| tick(a) == tick(b))
            .map(move |run| (tick(&run[0]), run.len() as u64))
    }
}

/// A chain ready to receive planned transactions.
#[derive(Debug)]
pub struct ChainHarness {
    chain: Chain,
    params: ChainParams,
    config: DeploymentConfig,
    engine: ExecutionEngine,
    options: RunConfig,
}

impl ChainHarness {
    /// Builds the harness, deploying `dapp` if given.
    ///
    /// Fails with the chain's reason when the DApp cannot run at all —
    /// unsupported state model or a hard "budget exceeded" (§6.4).
    pub fn new(
        chain: Chain,
        deployment: DeploymentKind,
        dapp: Option<DApp>,
        options: RunConfig,
    ) -> Result<Self, String> {
        Self::with_config(chain, DeploymentConfig::standard(deployment), dapp, options)
    }

    /// Builds the harness on an explicit deployment (custom setup files).
    pub fn with_config(
        chain: Chain,
        config: DeploymentConfig,
        dapp: Option<DApp>,
        options: RunConfig,
    ) -> Result<Self, String> {
        let params = options.resolved_params(chain, &config);
        let flavor = chain.vm_flavor();
        let engine = match dapp {
            None => ExecutionEngine::native(flavor, options.exec_mode),
            Some(dapp) => {
                ExecutionEngine::with_dapp(flavor, options.exec_mode, dapp).map_err(|u| u.reason)?
            }
        }
        .with_concurrency(options.concurrency);
        if let Some(Err(err)) = engine.probe() {
            if err.is_hard_budget() {
                return Err(format!("{err}"));
            }
        }
        Ok(ChainHarness {
            chain,
            params,
            config,
            engine,
            options,
        })
    }

    /// The chain under test.
    pub fn chain(&self) -> Chain {
        self.chain
    }

    /// Number of signing accounts the chain's setup provides (§5.2:
    /// 2,000 normally, 130 for Diem at scale).
    pub fn accounts(&self) -> u32 {
        self.params.accounts
    }

    /// Runs the submission plan to completion.
    ///
    /// `txs` must be sorted by submission time; `workload_secs` is the
    /// length of the submission window used for throughput reporting.
    /// Returns one record per submitted transaction, in plan order: every
    /// entry planned before the end of the last submission tick due by
    /// the deadline (window plus grace). A plan that runs past that tick
    /// loses its tail, which gets no record.
    ///
    /// # Panics
    ///
    /// Panics if an entry drawn from `txs` is earlier than the one drawn
    /// before it.
    pub fn run<P: Plan>(
        self,
        txs: impl IntoIterator<IntoIter = P>,
        workload_name: &str,
        workload_secs: f64,
    ) -> RunResult {
        let chain = self.chain;
        let (records, blocks, storage, trace) = self.simulate(txs, workload_secs).into_records();
        RunResult {
            chain,
            workload: workload_name.to_string(),
            workload_secs,
            records,
            unable_reason: None,
            blocks,
            storage,
            trace,
        }
    }

    /// Runs the submission plan to completion and hands back the
    /// finished world — what [`ChainHarness::run`] condenses into a
    /// [`RunResult`] — so a test can hold the final contract state
    /// against the state store's roots. As in [`ChainHarness::run`],
    /// the entries planned past the last submission tick due by the
    /// deadline are never drawn and get no record.
    ///
    /// # Panics
    ///
    /// Panics if an entry drawn from `txs` is earlier than the one drawn
    /// before it.
    pub fn simulate<P: Plan>(
        self,
        txs: impl IntoIterator<IntoIter = P>,
        workload_secs: f64,
    ) -> ChainSim {
        let plan = txs.into_iter();
        let net = NetworkModel::default();
        let qmodel = QuorumModel::new(&self.config, &net);

        let live = self.options.live;
        let workload_end = SimTime::from_secs_f64_ceil(workload_secs);
        let deadline = workload_end + SimDuration::from_secs(self.options.grace_secs);
        let mut sim = ChainSim::from_plan(
            self.chain,
            self.params,
            qmodel,
            self.engine,
            &plan,
            self.options.seed,
            deadline,
        )
        .with_faults(self.options.faults.clone())
        .with_store(self.options.storage)
        .with_tracer(self.options.trace, self.options.seed)
        .with_live_pool(live.map(|cfg| crate::live::LivePool::new(cfg.workers, cfg.time_scale)));
        match live {
            // The telemetry clock: live runs measure real elapsed time;
            // simulated runs rewind the virtual clock so span timings
            // start from zero even if a previous run in this process
            // left it advanced.
            Some(_) => diablo_telemetry::clock::use_wall_clock(),
            None => diablo_telemetry::clock::set_sim_now(SimTime::ZERO),
        }
        // Live mode delivers the same events in the same order, but
        // when wall-clock time catches up with each event's instant.
        let start = std::time::Instant::now();
        let mut plan = plan.peekable();
        let mut pace = |at: SimTime| {
            if let Some(cfg) = live {
                wait_for_wall_clock(start, at, cfg.time_scale);
            }
        };
        {
            let _run = diablo_telemetry::span("harness.run");
            {
                let _sub = diablo_telemetry::span("harness.submission");
                sim.run_until(&mut plan, workload_end, &mut pace);
            }
            {
                let _drain = diablo_telemetry::span("harness.drain");
                sim.run_until(&mut plan, deadline, &mut pace);
            }
        }
        if live.is_some() {
            // Hand the deterministic clock back so a follow-up
            // simulation (the live-diff's prediction) stays virtual.
            diablo_telemetry::clock::use_sim_clock();
        }
        sim
    }
}

/// Live mode's pacing: sleeps until the wall clock reaches the event
/// instant `at` (divided by `scale`) of a run that began at `start`.
/// Sleeping keeps the schedule honest; an event the machine cannot keep
/// up with records its lag instead of silently rewriting history.
fn wait_for_wall_clock(start: std::time::Instant, at: SimTime, scale: f64) {
    use std::time::{Duration, Instant};
    let scale = if scale.is_finite() && scale > 0.0 {
        scale
    } else {
        1.0
    };
    let target = start + Duration::from_micros((at.as_micros() as f64 / scale) as u64);
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    } else {
        diablo_telemetry::record_duration!(
            "live.pacing.lag_us",
            SimDuration::from_micros((now - target).as_micros() as u64)
        );
    }
    diablo_telemetry::counter!("live.events");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::TxStatus;

    fn plan_constant(tps: u64, secs: u64) -> Vec<PlannedTx> {
        let mut txs = Vec::new();
        for s in 0..secs {
            for i in 0..tps {
                txs.push(PlannedTx {
                    at: SimTime::from_micros(s * 1_000_000 + i * 1_000_000 / tps),
                    sender: (i % 100) as u32,
                    payload: Payload::Transfer,
                });
            }
        }
        txs
    }

    #[test]
    fn harness_runs_a_plan() {
        let h = ChainHarness::new(
            Chain::Quorum,
            DeploymentKind::Testnet,
            None,
            RunConfig::default(),
        )
        .unwrap();
        let plan = plan_constant(100, 20);
        let n = plan.len() as u64;
        let r = h.run(plan, "plan-test", 20.0);
        assert_eq!(r.submitted(), n);
        assert!(r.commit_ratio() > 0.9, "{}", r.summary());
    }

    #[test]
    fn records_follow_input_order() {
        let h = ChainHarness::new(
            Chain::Diem,
            DeploymentKind::Testnet,
            None,
            RunConfig::default(),
        )
        .unwrap();
        let plan = plan_constant(50, 10);
        let times: Vec<SimTime> = plan.iter().map(|t| t.at).collect();
        let r = h.run(plan, "order-test", 10.0);
        for (rec, t) in r.records.iter().zip(times) {
            assert_eq!(rec.submitted, t);
        }
    }

    #[test]
    fn unable_dapps_fail_construction() {
        let err = ChainHarness::new(
            Chain::Solana,
            DeploymentKind::Testnet,
            Some(DApp::Mobility),
            RunConfig::default(),
        )
        .unwrap_err();
        assert!(err.contains("budget exceeded"));
    }

    #[test]
    fn empty_plan_is_fine() {
        let h = ChainHarness::new(
            Chain::Ethereum,
            DeploymentKind::Testnet,
            None,
            RunConfig::default(),
        )
        .unwrap();
        let r = h.run(Vec::new(), "empty", 1.0);
        assert_eq!(r.submitted(), 0);
        assert_eq!(r.count_status(TxStatus::Committed), 0);
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_plan_panics() {
        let h = ChainHarness::new(
            Chain::Quorum,
            DeploymentKind::Testnet,
            None,
            RunConfig::default(),
        )
        .unwrap();
        let plan = vec![
            PlannedTx {
                at: SimTime::from_secs(2),
                sender: 0,
                payload: Payload::Transfer,
            },
            PlannedTx {
                at: SimTime::from_secs(1),
                sender: 0,
                payload: Payload::Transfer,
            },
        ];
        let _ = h.run(plan, "bad", 2.0);
    }
    #[test]
    fn a_reverted_first_touch_reaches_the_store() {
        use crate::exec::{Concurrency, ExecMode};
        use crate::tx::CallSel;
        use diablo_contracts::build;
        use diablo_store::{state_root, trie, StorageConfig};
        use diablo_vm::{prepare, Asm, Op};

        // No shipped DApp writes a fresh key and then fails, so deploy
        // a program that does under VideoSharing's `upload` name:
        // storage[5000 + n] = 7, then revert when n is odd. The
        // interpreter's rollback writes the old value back — 0, for a
        // key the state never held — which leaves an explicit entry
        // behind. The write log must carry it to the store although
        // the transaction failed.
        let mut asm = Asm::new();
        asm.entry("upload");
        asm.op(Op::Push(5_000))
            .op(Op::Arg(0))
            .op(Op::Add)
            .op(Op::Push(7))
            .op(Op::SStore);
        let even = asm.new_label();
        asm.op(Op::Arg(0)).op(Op::Push(2)).op(Op::Mod);
        asm.jump_if_zero(even);
        asm.op(Op::Revert(9));
        asm.bind(even);
        asm.op(Op::Halt);
        let program = asm.finish();

        for concurrency in [
            Concurrency::Serial,
            Concurrency::Parallel(2),
            Concurrency::Optimistic(2),
        ] {
            let chain = Chain::Quorum;
            let mut contract = build(DApp::VideoSharing, chain.vm_flavor()).unwrap();
            contract.prepared = prepare(&program, contract.flavor).unwrap();
            contract.program = program.clone();
            let options = RunConfig {
                exec_mode: ExecMode::Exact,
                concurrency,
                grace_secs: 20,
                storage: Some(StorageConfig::default()),
                ..RunConfig::default()
            };
            let config = DeploymentConfig::standard(DeploymentKind::Testnet);
            let harness = ChainHarness {
                chain,
                params: options.resolved_params(chain, &config),
                config,
                engine: ExecutionEngine::with_contract(ExecMode::Exact, contract)
                    .with_concurrency(concurrency),
                options,
            };
            let upload =
                diablo_contracts::calls::entry_index(DApp::VideoSharing, "upload").unwrap();
            let txs: Vec<PlannedTx> = (0..60u64)
                .map(|seq| PlannedTx {
                    at: SimTime::from_micros(seq * 50_000),
                    sender: (seq % 100) as u32,
                    payload: Payload::Invoke {
                        dapp: DApp::VideoSharing,
                        seq,
                        call: Some(CallSel {
                            entry: upload,
                            args: [seq as i32, 0],
                            argc: 1,
                        }),
                    },
                })
                .collect();
            let world = harness.simulate(txs, 3.0);

            let state = world.contract_state().unwrap();
            let store = world.store().unwrap();
            assert_eq!(store.report().txs, 60, "{concurrency:?}");
            // 60 touched keys plus the one `ChainSim`'s cost probe wrote.
            assert_eq!(state.entry_count(), 61, "{concurrency:?}");
            assert_eq!(state.load(5_000 + 4), 7);
            assert!(state.contains_key(5_000 + 5) && state.load(5_000 + 5) == 0);
            let entries = state.sorted_entries();
            assert_eq!(store.storage().entries(), &entries[..], "{concurrency:?}");
            assert_eq!(
                store.last_state_root(),
                state_root(
                    &trie::root(&entries),
                    state.blob_bytes(),
                    state.blob_count()
                ),
                "{concurrency:?}"
            );
        }
    }
}
