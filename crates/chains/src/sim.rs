//! The chain simulation world and the experiment driver.
//!
//! One [`Experiment`] = one chain × one deployment × one workload, the
//! unit every figure of the paper is built from. The simulation runs
//! three kinds of events:
//!
//! - **submission ticks** (every 100 ms): the collocated Diablo
//!   Secondaries inject the workload's transactions into their nodes'
//!   mempools, stamping submission times;
//! - **block production**: the chain's consensus produces blocks at its
//!   own cadence (fixed slots for Solana, throttled periods for
//!   Avalanche and Clique, commit-chained rounds for IBFT, pipelined
//!   rounds with a pacemaker for HotStuff, gossip-and-vote rounds for
//!   Algorand), each carrying admission, assembly, execution and
//!   consensus latency;
//! - **finality**: committed transactions are *decided* once the block
//!   gains the chain's confirmation depth and the polling client
//!   notices (§4, §5.2).

use std::collections::VecDeque;

use diablo_contracts::{calls, DApp};
use diablo_net::{DeploymentConfig, DeploymentKind, QuorumModel};
use diablo_sim::{DetRng, QueueBackend, Scheduler, SimDuration, SimTime, World};
use diablo_store::{BlockRoots, ReceiptRec, StateDelta, StateStore, StorageConfig, StorageReport};
use diablo_telemetry::trace::{self, TraceStage};
use diablo_vm::ContractState;
use diablo_workloads::Workload;

use crate::chain::Chain;
use crate::config::RunConfig;
use crate::exec::{Concurrency, ExecMode, ExecutionEngine};
use crate::faults::{FaultPlan, FaultTimeline};
use crate::fees::FeeMarket;
use crate::harness::{ChainHarness, PlannedTx};
use crate::mempool::{AdmitError, Mempool};
use crate::params::{ChainParams, ConsensusKind, SigVerify};
use crate::records::{BlockRecord, RunResult, TxRecord, TxStatus};
use crate::tx::{CallSel, Payload, TxMeta};

/// Submission tick length.
pub(crate) const TICK_MS: u64 = 100;

/// Events of the chain world.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// Submit the transactions of tick `k`.
    Tick(u32),
    /// Produce (or attempt) the next block.
    Propose,
}

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

    /// Overrides the signature-verification cost curve (ablations).
    pub fn with_sig_verify(mut self, sig_verify: SigVerify) -> Self {
        self.run.sig_verify = Some(sig_verify);
        self
    }

    /// Runs the simulation kernel on an explicit event-queue backend
    /// (wheel-vs-heap differential runs and benches).
    pub fn with_queue_backend(mut self, queue: QueueBackend) -> Self {
        self.run.queue = queue;
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
        // Plan the workload: spread each tick's transactions evenly,
        // round-robin senders over the chain's accounts.
        let accounts = harness.accounts() as u64;
        let ticks = self.workload.ticks(TICK_MS);
        let mut plan = Vec::with_capacity(self.workload.total_txs() as usize);
        let mut seq = 0u64;
        for (k, &count) in ticks.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let start = SimTime::from_millis(k as u64 * TICK_MS);
            let spacing = SimDuration::from_micros(TICK_MS * 1000 / count);
            for i in 0..count {
                let payload = match self.dapp {
                    Some(dapp) => Payload::Invoke {
                        dapp,
                        seq,
                        call: self.call,
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
        harness.run(plan, &workload_name, workload_secs)
    }
}

/// The submission plan, flattened: one time-sorted vector plus per-tick
/// bounds, instead of one owned `Vec` per 100 ms tick.
///
/// Planning a long run used to allocate a bucket per tick and
/// `mem::take` each on submission; the flat layout keeps the whole plan
/// in one slab, indexes ticks as slices, and preserves input order
/// exactly (the input is time-sorted with stable ties).
pub(crate) struct TickPlan {
    txs: Vec<PlannedTx>,
    /// `bounds[k]..bounds[k + 1]` is tick `k`'s slice; `ticks + 1` long.
    bounds: Vec<u32>,
}

impl TickPlan {
    /// Builds the per-tick bounds over a time-sorted plan.
    pub(crate) fn from_sorted(txs: Vec<PlannedTx>, tick_us: u64) -> Self {
        debug_assert!(txs.windows(2).all(|w| w[0].at <= w[1].at));
        let last = txs.last().map(|t| t.at.as_micros()).unwrap_or(0);
        let ticks = (last / tick_us + 1) as usize;
        let mut bounds = Vec::with_capacity(ticks + 1);
        bounds.push(0u32);
        let mut i = 0usize;
        for k in 0..ticks {
            let end = (k as u64 + 1) * tick_us;
            while i < txs.len() && txs[i].at.as_micros() < end {
                i += 1;
            }
            bounds.push(i as u32);
        }
        TickPlan { txs, bounds }
    }

    /// Number of submission ticks.
    fn ticks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Index range of tick `k`'s transactions.
    fn range(&self, k: usize) -> std::ops::Range<usize> {
        self.bounds[k] as usize..self.bounds[k + 1] as usize
    }

    /// Total planned transactions.
    fn len(&self) -> usize {
        self.txs.len()
    }
}

/// A block whose transactions await confirmation depth.
struct PendingFinality {
    /// Height at which the block committed.
    height: u64,
    /// Commit instant.
    committed: SimTime,
    /// `(record index, execution succeeded)` per transaction.
    txs: Vec<(u32, bool)>,
}

/// The simulation world for one chain run.
pub struct ChainSim {
    chain: Chain,
    params: ChainParams,
    qmodel: QuorumModel,
    rng: DetRng,
    pool: Mempool,
    fee: FeeMarket,
    engine: ExecutionEngine,
    /// Per-transaction records (the arena Secondaries report from).
    records: Vec<TxRecord>,
    /// The flattened submission plan (time-sorted, tick-bounded).
    plan: TickPlan,
    /// Current block height.
    height: u64,
    /// Consensus rounds attempted (proposals, including wasted ones) —
    /// the tracer's round annotation.
    rounds: u64,
    /// Rotating proposer index.
    proposer: usize,
    /// Per-transaction gas estimate (homogeneous workloads).
    gas_estimate: u64,
    /// Per-transaction executed-ops estimate (CPU-time proxy).
    ops_estimate: u64,
    /// Per-transaction wire size estimate.
    wire_estimate: u32,
    /// HotStuff pacemaker state: current timeout.
    pacemaker: SimDuration,
    /// Blocks awaiting confirmation depth.
    awaiting: VecDeque<PendingFinality>,
    /// Commit instant of each block, indexed by `height - 1`.
    commit_times: Vec<SimTime>,
    /// Block-explorer records, one per produced block.
    blocks: Vec<BlockRecord>,
    /// Per-sender id of the first dropped transaction: later
    /// transactions of that account are stalled behind the nonce gap
    /// (`u32::MAX` = no gap).
    broken_from: Vec<u32>,
    /// Submitted transactions per second (offered load; drives the
    /// admission-overload model).
    arrival_per_sec: Vec<u64>,
    /// End of the submission phase.
    workload_end: SimTime,
    /// Hard stop for block production.
    deadline: SimTime,
    /// Injected faults.
    faults: FaultPlan,
    /// The fault plan compiled against this deployment (sorted event
    /// timeline; all per-tick queries are O(log faults)).
    timeline: FaultTimeline,
    /// Delay multiplier from message loss in the current round
    /// (retransmissions); reset at every proposal.
    round_stretch: f64,
    /// The append-only state store, when the run enables the staged
    /// commit pipeline.
    store: Option<StateStore>,
    /// Live mode's verification pool: when attached, the modeled
    /// signature-verification delay is replaced with real, measured
    /// work (`crate::live`).
    live: Option<crate::live::LivePool>,
}

impl ChainSim {
    /// Builds the world from an explicit per-tick submission plan.
    pub(crate) fn from_plan(
        chain: Chain,
        params: ChainParams,
        qmodel: QuorumModel,
        mut engine: ExecutionEngine,
        plan: TickPlan,
        seed: u64,
        deadline: SimTime,
    ) -> Self {
        let rng = DetRng::new(seed ^ (chain as u64) << 8);
        let pool = Mempool::with_accounts(params.mempool, params.accounts as usize);
        let fee = match params.fee_headroom {
            Some(h) => FeeMarket::london(h),
            None => FeeMarket::disabled(),
        };
        // Estimate the homogeneous per-transaction cost once.
        let dapp = engine.contract().map(|c| c.dapp);
        let probe_payload = match dapp {
            Some(dapp) => Payload::Invoke {
                dapp,
                seq: 0,
                call: None,
            },
            None => Payload::Transfer,
        };
        let probe_cost = engine.execute(probe_payload);
        let wire_estimate = match dapp {
            Some(dapp) => calls::call_for(dapp, 0).wire_bytes() as u32,
            None => 150,
        };
        let pacemaker = match params.consensus {
            ConsensusKind::HotStuff { pacemaker_base, .. } => pacemaker_base,
            _ => SimDuration::ZERO,
        };
        let total: usize = plan.len();
        let per_sec = (1000 / TICK_MS) as usize;
        let tick_counts: Vec<u64> = (0..plan.ticks())
            .map(|k| plan.range(k).len() as u64)
            .collect();
        let arrival_per_sec: Vec<u64> = tick_counts
            .chunks(per_sec)
            .map(|c| c.iter().sum())
            .collect();
        let accounts = params.accounts as usize;
        let workload_end = deadline;
        ChainSim {
            chain,
            params,
            qmodel,
            rng,
            pool,
            fee,
            engine,
            records: Vec::with_capacity(total),
            plan,
            height: 0,
            rounds: 0,
            proposer: 0,
            gas_estimate: probe_cost.gas.max(1),
            ops_estimate: probe_cost.ops.max(1),
            wire_estimate,
            pacemaker,
            awaiting: VecDeque::new(),
            commit_times: Vec::new(),
            blocks: Vec::new(),
            broken_from: vec![u32::MAX; accounts.max(1)],
            arrival_per_sec,
            workload_end,
            deadline,
            faults: FaultPlan::none(),
            timeline: FaultTimeline::empty(),
            round_stretch: 1.0,
            store: None,
            live: None,
        }
    }

    /// Attaches live mode's verification pool: block execution now pays
    /// *measured* wall time for signature checks instead of the modeled
    /// curve.
    pub(crate) fn with_live_pool(mut self, pool: Option<crate::live::LivePool>) -> Self {
        self.live = pool;
        self
    }

    /// Enables the staged commit pipeline: every committed block is
    /// merkleized, persisted and pruned through `config`'s store, which
    /// is fed from the contract state's write log.
    pub(crate) fn with_store(mut self, config: Option<StorageConfig>) -> Self {
        self.store = config.map(StateStore::new);
        if self.store.is_some() {
            if let Some(state) = self.engine.contract_state_mut() {
                state.track_writes();
            }
        }
        self
    }

    /// Attaches an injected-fault schedule (compiled once against the
    /// deployment's node count).
    pub(crate) fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.timeline = faults.compile(self.qmodel.node_count());
        self.faults = faults;
        self
    }

    /// Number of submission ticks in the plan.
    pub(crate) fn tick_count(&self) -> usize {
        self.plan.ticks()
    }

    /// Hard stop for block production.
    pub(crate) fn deadline(&self) -> SimTime {
        self.deadline
    }

    /// Consumes the world, yielding the per-transaction records, the
    /// block-explorer records, and the storage report (when the store
    /// was enabled).
    pub(crate) fn into_records(self) -> (Vec<TxRecord>, Vec<BlockRecord>, Option<StorageReport>) {
        let storage = self.store.as_ref().map(StateStore::report);
        (self.records, self.blocks, storage)
    }

    /// Submits the transactions of one tick.
    fn submit_tick(&mut self, _now: SimTime, k: u32) {
        let range = self.plan.range(k as usize);
        let nodes = self.qmodel.node_count().max(1);
        for i in range {
            // `PlannedTx` is `Copy`: reading out of the flat plan keeps
            // the borrow checker away from the mutations below.
            let planned = self.plan.txs[i];
            let id = self.records.len() as u32;
            self.records.push(TxRecord::submitted_at(planned.at));
            trace::emit(
                id as u64,
                TraceStage::Submitted,
                planned.at.as_micros(),
                (planned.sender % self.params.accounts.max(1)) as u64,
                0,
            );
            // The collocated Secondary submits to its nearest node; the
            // transaction must gossip to the proposers before inclusion.
            let mut site = (id as usize) % nodes;
            let mut submit_at = planned.at;
            if !self.timeline.is_empty() {
                // Corrupted submissions are rejected by the node; the
                // client retries with exponential backoff until its
                // policy runs out, then reports the transaction
                // rejected.
                match self.resolve_submission(planned.at) {
                    Some(at) => {
                        if at > planned.at {
                            trace::emit(
                                id as u64,
                                TraceStage::Retried,
                                at.as_micros(),
                                at.since(planned.at).as_micros(),
                                0,
                            );
                        }
                        submit_at = at;
                    }
                    None => {
                        let decided = planned.at + self.faults.retry_policy().timeout;
                        let rec = &mut self.records[id as usize];
                        rec.status = TxStatus::Rejected;
                        rec.decided = Some(decided);
                        trace::emit(id as u64, TraceStage::Rejected, decided.as_micros(), 0, 0);
                        continue;
                    }
                }
                // A crashed submission node refuses connections: the
                // client deterministically fails over to the next live
                // node.
                if self.timeline.is_crashed(site, submit_at) {
                    for off in 1..nodes {
                        let alt = (site + off) % nodes;
                        if !self.timeline.is_crashed(alt, submit_at) {
                            diablo_telemetry::counter!("client.submit.rerouted");
                            trace::emit(
                                id as u64,
                                TraceStage::Rerouted,
                                submit_at.as_micros(),
                                alt as u64,
                                0,
                            );
                            site = alt;
                            break;
                        }
                    }
                }
            }
            let mut gossip = SimDuration::from_secs_f64(self.qmodel.median_delay_from(site));
            if !self.timeline.is_empty() {
                // Lost gossip messages are retransmitted: the expected
                // propagation time stretches by 1/(1-loss).
                let loss = self.timeline.loss_rate(submit_at, site);
                if loss > 0.0 {
                    gossip = SimDuration::from_secs_f64(gossip.as_secs_f64() / (1.0 - loss));
                }
            }
            diablo_telemetry::record_duration!("net.submit.gossip_us", gossip);
            let mut available = submit_at + gossip;
            if !self.timeline.is_empty() {
                // A transaction entering a non-committing partition
                // component only reaches the proposers after the heal.
                if let Some(p) = self.timeline.partition_at(available) {
                    let comp = p.component.get(site).copied().unwrap_or(0);
                    if comp != p.committing {
                        let deferred_from = available;
                        available = available.max(p.until);
                        diablo_telemetry::counter!("net.partition.deferred");
                        trace::emit(
                            id as u64,
                            TraceStage::Deferred,
                            available.as_micros(),
                            available.since(deferred_from).as_micros(),
                            0,
                        );
                    }
                }
            }
            let tx = TxMeta {
                id,
                sender: planned.sender % self.params.accounts.max(1),
                payload: planned.payload,
                submitted: planned.at,
                available,
                wire_bytes: self.wire_estimate,
                fee_cap_millis: self.fee.sign_fee_cap_millis(),
            };
            let sender = tx.sender;
            match self.pool.admit(tx) {
                Ok(()) => {
                    trace::emit(id as u64, TraceStage::Admitted, available.as_micros(), 0, 0);
                }
                Err(AdmitError::PoolFull) => {
                    self.records[id as usize].status = TxStatus::DroppedPoolFull;
                    trace::emit(
                        id as u64,
                        TraceStage::DroppedPoolFull,
                        available.as_micros(),
                        0,
                        0,
                    );
                    if self.params.nonce_gaps {
                        // The dropped nonce stalls every *later*
                        // transaction of this account (geth nonce
                        // ordering); earlier ones still commit.
                        let slot = &mut self.broken_from[sender as usize];
                        *slot = (*slot).min(id);
                    }
                }
                Err(AdmitError::PerSenderLimit) => {
                    self.records[id as usize].status = TxStatus::DroppedPerSender;
                    trace::emit(
                        id as u64,
                        TraceStage::DroppedPerSender,
                        available.as_micros(),
                        0,
                        0,
                    );
                }
            }
        }
    }

    /// Resolves one submission against the corruption faults and the
    /// client retry policy: returns the instant of the first accepted
    /// attempt, or `None` when every attempt within the policy's
    /// timeout window was corrupted and rejected.
    fn resolve_submission(&mut self, planned_at: SimTime) -> Option<SimTime> {
        let policy = self.faults.retry_policy();
        let deadline = planned_at + policy.timeout;
        let mut attempt_at = planned_at;
        let mut backoff = policy.backoff;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 && attempt_at > deadline {
                break;
            }
            let rate = self.timeline.corruption_rate(attempt_at);
            if rate > 0.0 && self.rng.chance(rate) {
                diablo_telemetry::counter!("client.submit.corrupted");
                attempt_at = attempt_at + backoff;
                backoff = backoff * 2;
                continue;
            }
            return Some(attempt_at);
        }
        diablo_telemetry::counter!("client.submit.rejected");
        None
    }

    /// Effective per-block transaction capacity after gas limits and
    /// admission-overload degradation.
    fn block_capacity(&self, now: SimTime) -> usize {
        let by_gas = (self.params.block_gas_limit / self.gas_estimate) as usize;
        let mut base = self.params.block_tx_limit.min(by_gas.max(1));
        let is_invoke_run = self.engine.contract().is_some();
        if is_invoke_run {
            // Writes to one hot contract serialize in parallel runtimes
            // (Solana's banking stage): a hard per-block invoke cap.
            if let Some(cap) = self.params.invoke_tx_per_block {
                base = base.min(cap);
            }
        }
        // Offered load above the node's admission rate steals cycles
        // from block production (signature checks, prevalidation, pool
        // churn); contract calls cost `invoke_weight` transfers each.
        let sec = now.second_bucket() as usize;
        let weight = if is_invoke_run {
            self.params.invoke_weight
        } else {
            1.0
        };
        let arrivals = self.arrival_per_sec.get(sec).copied().unwrap_or(0) as f64 * weight;
        let overload = (arrivals / self.params.admission_rate - 1.0).max(0.0);
        let mult = 1.0 / (1.0 + self.params.overload_degradation * overload * overload);
        ((base as f64 * mult) as usize).max(1)
    }

    /// Egress serialization time of broadcasting `bytes` to `peers`.
    fn egress_delay(&self, bytes: u64, peers: usize) -> SimDuration {
        let bits = bytes as f64 * 8.0 * peers as f64;
        let d = SimDuration::from_secs_f64(bits / (self.params.egress_mbps * 1e6));
        diablo_telemetry::record_duration!("net.egress_us", d);
        diablo_telemetry::counter!("net.bytes.block_egress", bytes * peers as u64);
        d
    }

    /// Scales a consensus delay by the injected network slowdown and
    /// the current round's retransmission stretch.
    fn impaired(&self, d: SimDuration, now: SimTime) -> SimDuration {
        let f = self.timeline.delay_factor(now) * self.round_stretch;
        if f == 1.0 {
            d
        } else {
            SimDuration::from_secs_f64(d.as_secs_f64() * f)
        }
    }

    /// Evicts expired transactions (Solana's recent-blockhash rule).
    fn evict_expired(&mut self, now: SimTime) {
        if let Some(expiry) = self.params.blockhash_expiry {
            let evicted = self.pool.evict_where(|tx| now.since(tx.submitted) > expiry);
            for id in evicted {
                self.records[id as usize].status = TxStatus::DroppedExpired;
                self.records[id as usize].decided = Some(now);
                trace::emit(id as u64, TraceStage::DroppedExpired, now.as_micros(), 0, 0);
            }
        }
    }

    /// Finalizes blocks that have gained confirmation depth.
    fn settle_finality(&mut self) {
        let depth = self.params.confirmations as u64;
        let now_height = self.height;
        while let Some(front) = self.awaiting.front() {
            if front.height + depth > now_height {
                break;
            }
            let block = self.awaiting.pop_front().expect("front exists");
            // The decision instant is the commit of the depth-th
            // successor block plus the client's detection delay.
            let confirm_height = block.height + depth;
            let confirm_at = self.commit_times[(confirm_height - 1) as usize];
            let decided = confirm_at.max(block.committed) + self.params.detection_delay;
            for (id, ok) in block.txs {
                let rec = &mut self.records[id as usize];
                rec.decided = Some(decided);
                rec.status = if ok {
                    TxStatus::Committed
                } else {
                    TxStatus::Failed
                };
                trace::emit(
                    id as u64,
                    TraceStage::Finalized,
                    decided.as_micros(),
                    ok as u64,
                    0,
                );
            }
        }
    }

    /// Produces one block (or a failed round) and returns the delay
    /// until the next proposal.
    fn propose(&mut self, now: SimTime) -> SimDuration {
        self.rounds += 1;
        self.evict_expired(now);
        let n = self.qmodel.node_count();
        let leader = self.proposer % n;
        self.proposer = (self.proposer + 1) % n;

        // Injected faults: quorum loss, partitions, crashed leaders and
        // lost messages can consume the round before consensus starts.
        if !self.timeline.is_empty() {
            if let Some(wasted) = self.fault_round(now, leader, n) {
                return wasted;
            }
        }

        match self.params.consensus {
            ConsensusKind::HotStuff {
                min_round,
                pacemaker_base,
                pacemaker_cap,
            } => {
                let bytes = self.expected_block_bytes(now);
                let phase_base = self.impaired(
                    self.qmodel.linear_phase(leader, bytes)
                        + self.egress_delay(bytes, n.saturating_sub(1)),
                    now,
                );
                let jitter = 1.0 + 0.1 * self.rng.exponential(1.0);
                let phase = SimDuration::from_secs_f64(phase_base.as_secs_f64() * jitter);
                if phase > self.pacemaker {
                    // View change: the round is wasted; timeouts back off
                    // exponentially (HotStuff pacemaker).
                    diablo_telemetry::counter!("consensus.hotstuff.view_changes");
                    let wasted = self.pacemaker;
                    self.pacemaker = (self.pacemaker * 2).min(pacemaker_cap);
                    return wasted.max(min_round);
                }
                self.pacemaker = pacemaker_base;
                diablo_telemetry::record_duration!("consensus.hotstuff.phase_us", phase);
                diablo_telemetry::record_duration!("consensus.hotstuff.round_us", phase * 3);
                let commit = now + phase * 3; // three-chain commit
                // HotStuff's fitted round model absorbs verification
                // and execution; no explicit execution share.
                self.commit_block(now, commit, SimDuration::ZERO);
                phase.max(min_round)
            }
            ConsensusKind::Ibft {
                min_period,
                scan_per_tx,
            } => {
                // Pool maintenance is superlinear in the backlog (geth
                // reheaps and re-sorts the pending set); an unbounded
                // queue therefore strangles block production (§6.3).
                let backlog = self.pool.len() as u64;
                let assembly = scan_per_tx * backlog * (1 + backlog / 30_000);
                let bytes = self.expected_block_bytes(now);
                let commit_lat = self.impaired(
                    self.qmodel.ibft_commit(leader, bytes)
                        + self.egress_delay(bytes, n.saturating_sub(1)),
                    now,
                );
                let jitter = 1.0 + 0.1 * self.rng.exponential(1.0);
                let exec = self.exec_delay_estimate(now);
                let total = SimDuration::from_secs_f64(
                    (assembly + commit_lat + exec).as_secs_f64() * jitter,
                );
                diablo_telemetry::record_duration!("consensus.ibft.assembly_us", assembly);
                diablo_telemetry::record_duration!("consensus.ibft.commit_us", commit_lat);
                diablo_telemetry::record_duration!("consensus.ibft.round_us", total);
                let commit = now + total;
                self.commit_block(now, commit, exec);
                // IBFT does not pipeline: the next proposal follows the
                // previous commit.
                total.max(min_period)
            }
            ConsensusKind::Clique { period } => {
                let bytes = self.expected_block_bytes(now);
                let broadcast = self.impaired(
                    self.qmodel.broadcast_all(leader, bytes)
                        + self.egress_delay(bytes, n.saturating_sub(1)),
                    now,
                );
                let exec = self.exec_delay_estimate(now);
                diablo_telemetry::record_duration!("consensus.clique.broadcast_us", broadcast);
                diablo_telemetry::record_duration!("consensus.clique.round_us", broadcast + exec);
                let commit = now + broadcast + exec;
                self.commit_block(now, commit, exec);
                period
            }
            ConsensusKind::AlgorandBa {
                round_base,
                fanout,
                gossip_budget,
            } => {
                let bytes = self.expected_block_bytes(now);
                let gossip_block = self.impaired(
                    self.qmodel.gossip_all(leader, fanout, bytes)
                        + self.egress_delay(bytes, fanout),
                    now,
                );
                let gossip_votes = self.impaired(self.qmodel.gossip_all(leader, fanout, 512), now);
                // The protocol's fixed λ timeouts already budget for
                // propagation; only the excess lengthens the round.
                let gossip_excess = (gossip_block + gossip_votes).saturating_sub(gossip_budget);
                let jitter = 1.0 + 0.15 * self.rng.exponential(1.0);
                let round =
                    SimDuration::from_secs_f64((round_base + gossip_excess).as_secs_f64() * jitter);
                diablo_telemetry::record_duration!(
                    "consensus.ba_star.gossip_us",
                    gossip_block + gossip_votes
                );
                diablo_telemetry::record_duration!("consensus.ba_star.round_us", round);
                let commit = now + round;
                // BA★'s fixed λ timeouts budget verification and
                // execution inside the fitted round; no explicit share.
                self.commit_block(now, commit, SimDuration::ZERO);
                round
            }
            ConsensusKind::AvalancheSnow {
                sample_rounds,
                period_loaded,
                period_idle,
            } => {
                let bytes = self.expected_block_bytes(now);
                let per_round = self.qmodel.median_delay_from(leader).max(0.0005);
                let sampling = self.impaired(
                    SimDuration::from_secs_f64(sample_rounds as f64 * per_round)
                        + self.egress_delay(bytes, 8),
                    now,
                );
                let exec = self.exec_delay_estimate(now);
                diablo_telemetry::record_duration!("consensus.snow.sampling_us", sampling);
                diablo_telemetry::record_duration!("consensus.snow.round_us", sampling + exec);
                let commit = now + sampling + exec;
                self.commit_block(now, commit, exec);
                if self.pool.len() >= self.params.block_tx_limit {
                    period_loaded
                } else {
                    period_idle
                }
            }
            ConsensusKind::LeaderlessDbft {
                min_period,
                per_proposer,
            } => {
                // Every live node broadcasts its own proposal — each
                // pays egress only for its own share, so the superblock
                // bandwidth scales with the network instead of a leader.
                let share_bytes = (per_proposer as u64 * self.wire_estimate as u64)
                    .min(self.params.block_bytes_limit);
                let commit_lat = self.impaired(
                    self.qmodel.ibft_commit(leader, share_bytes)
                        + self.egress_delay(share_bytes, n.saturating_sub(1)),
                    now,
                );
                let jitter = 1.0 + 0.1 * self.rng.exponential(1.0);
                let exec = self.exec_delay_estimate(now);
                let total = SimDuration::from_secs_f64((commit_lat + exec).as_secs_f64() * jitter);
                diablo_telemetry::record_duration!("consensus.dbft.commit_us", commit_lat);
                diablo_telemetry::record_duration!("consensus.dbft.round_us", total);
                let commit = now + total;
                self.commit_block(now, commit, exec);
                total.max(min_period)
            }
            ConsensusKind::TowerBft { slot, skip_rate } => {
                if self.rng.chance(skip_rate) {
                    // Skipped slot: absent or lagging leader — the chain
                    // still advances one (empty) slot.
                    diablo_telemetry::counter!("consensus.tower_bft.skipped_slots");
                    self.commit_empty(now + slot);
                    return slot;
                }
                let exec = self.exec_delay_estimate(now);
                diablo_telemetry::record_duration!("consensus.tower_bft.round_us", slot + exec);
                let commit = now + slot + exec;
                self.commit_block(now, commit, exec);
                slot
            }
        }
    }

    /// Checks the fault timeline before a consensus round: returns the
    /// length of a consumed round (stall probe, wasted view change)
    /// when a fault prevents this proposal, `None` when the round may
    /// proceed. Sets `round_stretch` for retransmission delays in the
    /// proceeding case.
    fn fault_round(&mut self, now: SimTime, leader: usize, n: usize) -> Option<SimDuration> {
        self.round_stretch = 1.0;
        let f = self.qmodel.byzantine_f();
        let quorum = self.qmodel.quorum();
        let needs_quorum = matches!(
            self.params.consensus,
            ConsensusKind::Ibft { .. }
                | ConsensusKind::HotStuff { .. }
                | ConsensusKind::AlgorandBa { .. }
                | ConsensusKind::LeaderlessDbft { .. }
        );
        // More than f nodes down: a chain needing a quorum of 2f+1
        // cannot commit until enough nodes recover and catch up.
        if needs_quorum && self.timeline.crashed_count(now) > f {
            diablo_telemetry::counter!("consensus.stalls.no_quorum");
            return Some(SimDuration::from_millis(1_000));
        }
        // Partitions: only the largest component keeps committing, and
        // only if it still holds whatever the protocol needs.
        if let Some(p) = self.timeline.partition_at(now) {
            let leader_component = p.component.get(leader).copied().unwrap_or(0);
            let committing = p.committing;
            let live = p.committing_size();
            if leader_component != committing {
                // The proposer is cut off from the majority side: its
                // round times out like a crashed leader's.
                diablo_telemetry::counter!("consensus.rounds.leader_partitioned");
                return Some(self.wasted_round(now));
            }
            match self.params.consensus {
                // Deterministic BFT: the majority side still needs a
                // 2f+1 quorum (counted over the full node set).
                ConsensusKind::Ibft { .. }
                | ConsensusKind::HotStuff { .. }
                | ConsensusKind::LeaderlessDbft { .. }
                | ConsensusKind::TowerBft { .. }
                    if live < quorum =>
                {
                    diablo_telemetry::counter!("consensus.stalls.partition");
                    return Some(SimDuration::from_millis(1_000));
                }
                // Clique PoA: each signer may only sign every
                // floor(n/2)+1 blocks, so a half-or-smaller component
                // cannot extend the chain.
                ConsensusKind::Clique { .. } if live * 2 <= n => {
                    diablo_telemetry::counter!("consensus.stalls.partition");
                    return Some(SimDuration::from_millis(1_000));
                }
                // BA★ sortition: below half the stake the protocol
                // stalls; above it, rounds whose selected proposers
                // fall in a minority component fail probabilistically
                // and gossip slows with the missing relays.
                ConsensusKind::AlgorandBa { .. } => {
                    if live * 2 <= n {
                        diablo_telemetry::counter!("consensus.stalls.partition");
                        return Some(SimDuration::from_millis(1_000));
                    }
                    let minority = 1.0 - live as f64 / n as f64;
                    if self.rng.chance(minority) {
                        diablo_telemetry::counter!("consensus.rounds.partition_degraded");
                        return Some(self.wasted_round(now));
                    }
                    self.round_stretch = n as f64 / live as f64;
                }
                // Snow sampling: queries into the unreachable component
                // time out, so confidence builds more slowly; sampled
                // rounds occasionally fail outright.
                ConsensusKind::AvalancheSnow { .. } => {
                    let minority = 1.0 - live as f64 / n as f64;
                    if self.rng.chance(minority) {
                        diablo_telemetry::counter!("consensus.rounds.partition_degraded");
                        return Some(self.wasted_round(now));
                    }
                    let stretch = n as f64 / live as f64;
                    self.round_stretch = stretch * stretch;
                }
                _ => {}
            }
        }
        // A crashed (or still catching-up) leader wastes its round on a
        // timeout: view change, skipped slot, failed sortition round.
        if self.timeline.is_crashed(leader, now) {
            diablo_telemetry::counter!("consensus.rounds.leader_crashed");
            return Some(self.wasted_round(now));
        }
        // Message loss: a lost proposal or vote consumes the round with
        // a retransmission timeout; surviving rounds stretch by the
        // expected number of retransmissions.
        let loss = self.timeline.loss_rate(now, leader);
        if loss > 0.0 {
            if self.rng.chance(loss) {
                diablo_telemetry::counter!("consensus.rounds.msg_lost");
                return Some(self.wasted_round(now));
            }
            self.round_stretch *= 1.0 / (1.0 - loss);
        }
        None
    }

    /// The cost of a round consumed by a fault, per protocol: HotStuff
    /// backs its pacemaker off, IBFT runs a view change, Clique and
    /// TowerBFT advance an empty slot, BA★ burns a sortition round.
    fn wasted_round(&mut self, now: SimTime) -> SimDuration {
        match self.params.consensus {
            ConsensusKind::HotStuff {
                pacemaker_base,
                pacemaker_cap,
                ..
            } => {
                let wasted = self.pacemaker.max(pacemaker_base);
                self.pacemaker = (self.pacemaker * 2).min(pacemaker_cap);
                wasted
            }
            ConsensusKind::Ibft { min_period, .. } => min_period * 3,
            ConsensusKind::Clique { period } => {
                self.commit_empty(now + period);
                period
            }
            ConsensusKind::AlgorandBa { round_base, .. } => round_base,
            ConsensusKind::AvalancheSnow { period_loaded, .. } => period_loaded,
            // Leaderless: a dead node merely contributes no proposal;
            // the round proceeds without it after the batch timeout.
            ConsensusKind::LeaderlessDbft { min_period, .. } => min_period,
            ConsensusKind::TowerBft { slot, .. } => {
                self.commit_empty(now + slot);
                slot
            }
        }
    }

    /// Expected payload bytes of the next block (for latency models).
    fn expected_block_bytes(&self, now: SimTime) -> u64 {
        let txs = self.block_capacity(now).min(self.pool.len());
        (txs as u64 * self.wire_estimate as u64).min(self.params.block_bytes_limit)
    }

    /// Verification-plus-execution delay of a full block: batched
    /// signature verification (the [`SigVerify`](crate::SigVerify) cost
    /// curve) followed by contract execution at the chain's rate.
    ///
    /// HotStuff and BA★ rounds absorb verification in their fitted
    /// round models and do not call this; every arm that charges
    /// execution explicitly charges verification with it.
    fn exec_delay_estimate(&self, now: SimTime) -> SimDuration {
        let txs = self.block_capacity(now).min(self.pool.len());
        // Live mode pays the real, measured verification cost; the
        // simulation charges the modeled curve. Either way the cost
        // lands in the same telemetry key, so live-diff compares them
        // phase by phase.
        let sig = match &self.live {
            Some(pool) => pool.verify_batch(txs, &self.params.sig_verify),
            None => self.params.sig_verify.batch_cost(txs),
        };
        diablo_telemetry::record_duration!("exec.sigverify_us", sig);
        let ops = txs as f64 * self.ops_estimate as f64;
        let d = SimDuration::from_secs_f64(ops / self.params.exec_ops_per_sec.max(1.0));
        diablo_telemetry::record_duration!("exec.block_delay_us", d);
        sig + d
    }

    /// Runs the store's merkleize → persist → prune stages for the
    /// block just appended at `self.height`, returning the block's
    /// roots. A no-op (`None`) when the run did not enable storage.
    ///
    /// A block that executed something (`changed`) hands the store the
    /// entries it wrote, drained from the contract state's write log;
    /// the store re-hashes those paths only. Empty blocks, and chains
    /// without a contract, carry the previous state root forward.
    fn persist_block(
        &mut self,
        committed: SimTime,
        bytes: u32,
        recs: &[ReceiptRec],
        changed: bool,
        touched: &[(u32, u32)],
    ) -> Option<BlockRoots> {
        let store = self.store.as_mut()?;
        let state = if changed {
            self.engine.contract_state_mut()
        } else {
            None
        };
        let drained = state.map(|state| (state.drain_writes(), &*state));
        let delta = drained.as_ref().map(|(written, state)| StateDelta {
            written,
            blob_bytes: state.blob_bytes(),
            blob_count: state.blob_count(),
        });
        let roots = store.commit_block(
            self.height,
            committed.as_micros(),
            bytes,
            recs,
            delta,
            touched,
        );
        if let Some((_, state)) = drained {
            // The from-scratch fold is the oracle: a write the log
            // missed, or a path the table did not re-hash, shows here.
            debug_assert_eq!(
                store.storage().root(),
                diablo_store::trie::root(&state.sorted_entries()),
                "incremental state root diverged at height {}",
                self.height
            );
        }
        Some(roots)
    }

    /// Advances the chain by one empty block (skipped or empty slots
    /// still deepen confirmations).
    fn commit_empty(&mut self, committed: SimTime) {
        diablo_telemetry::counter!("consensus.blocks.empty");
        self.height += 1;
        self.commit_times.push(committed);
        self.blocks.push(BlockRecord {
            height: self.height,
            committed,
            txs: 0,
            bytes: 0,
        });
        self.persist_block(committed, 0, &[], false, &[]);
        self.settle_finality();
    }

    /// Fills a block from the pool, executes it and queues finality.
    ///
    /// `exec_share` is the (unjittered) verification-plus-execution
    /// estimate the proposing arm folded into `committed`; zero for the
    /// consensus models whose fitted rounds absorb execution. The
    /// consensus-phase latency histogram and the tracer's `ordered`
    /// stamp both exclude it, so the per-phase table and the per-tx
    /// waterfall attribute that time to execution exactly once.
    fn commit_block(&mut self, now: SimTime, committed: SimTime, exec_share: SimDuration) {
        let capacity = self.block_capacity(now);
        let fee = &self.fee;
        let broken = &self.broken_from;
        // Drain by arena id: records stay in the pool's slab while the
        // block is assembled and executed, and the slots are recycled
        // at the end — no owned copies on the per-block path.
        let batch = self
            .pool
            .take_batch_ids(capacity, self.params.block_bytes_limit, |tx| {
                tx.available <= now
                    && fee.is_eligible(tx.fee_cap_millis)
                    && tx.id < broken[tx.sender as usize]
            });
        let fill = batch.len() as f64 / capacity.max(1) as f64;
        self.fee.on_block(fill);
        diablo_telemetry::counter!("consensus.blocks.committed");
        diablo_telemetry::record!("consensus.block.txs", batch.len() as u64);
        diablo_telemetry::record_duration!(
            "consensus.commit_latency_us",
            committed.since(now).saturating_sub(exec_share)
        );
        if diablo_telemetry::enabled() {
            for &id in &batch {
                // Queueing delay: submission to inclusion in a block.
                let tx = self.pool.meta(id);
                diablo_telemetry::record_duration!("mempool.queue_wait_us", now.since(tx.submitted));
            }
        }
        if trace::active() {
            let round = self.rounds;
            let block = self.height + 1;
            let ordered_us = committed.as_micros().saturating_sub(exec_share.as_micros());
            for &id in &batch {
                let tid = self.pool.meta(id).id as u64;
                trace::emit(tid, TraceStage::Selected, now.as_micros(), round, 0);
                trace::emit(tid, TraceStage::Ordered, ordered_us, round, block);
            }
        }
        self.height += 1;
        self.commit_times.push(committed);
        let block_bytes: u32 = batch.iter().map(|&id| self.pool.meta(id).wire_bytes).sum();
        self.blocks.push(BlockRecord {
            height: self.height,
            committed,
            txs: batch.len() as u32,
            bytes: block_bytes,
        });
        if !batch.is_empty() {
            // The whole batch goes through the engine at once so a
            // parallel-configured engine can schedule its conflict-free
            // transactions across workers; costs come back in canonical
            // order either way.
            let payloads: Vec<Payload> = batch.iter().map(|&id| self.pool.meta(id).payload).collect();
            let costs = self.engine.execute_block(&payloads);
            if trace::active() {
                // The mode code and per-transaction execution counts are
                // the executor-dependent annotations: they live in the
                // trace set (and on the wire) but never in the Chrome
                // export, which must stay byte-identical across modes.
                let mode = self.engine.concurrency().code();
                let counts = self.engine.last_exec_counts();
                for (&id, &count) in batch.iter().zip(counts) {
                    let tid = self.pool.meta(id).id as u64;
                    trace::emit(tid, TraceStage::Executed, committed.as_micros(), mode, count as u64);
                }
            }
            if self.store.is_some() {
                // Receipts in block order; the touched-accounts delta
                // aggregated and sorted by dense sender id.
                let recs: Vec<ReceiptRec> = batch
                    .iter()
                    .zip(&costs)
                    .map(|(&id, cost)| ReceiptRec {
                        id: self.pool.meta(id).sender,
                        ok: cost.ok,
                        gas: cost.gas,
                    })
                    .collect();
                let mut touched: Vec<(u32, u32)> = Vec::with_capacity(recs.len());
                let mut senders: Vec<u32> = recs.iter().map(|r| r.id).collect();
                senders.sort_unstable();
                for sender in senders {
                    match touched.last_mut() {
                        Some((id, n)) if *id == sender => *n += 1,
                        _ => touched.push((sender, 1)),
                    }
                }
                let roots = self.persist_block(committed, block_bytes, &recs, true, &touched);
                if let Some(roots) = roots {
                    if trace::active() {
                        for &id in &batch {
                            let tid = self.pool.meta(id).id as u64;
                            trace::emit(
                                tid,
                                TraceStage::Persisted,
                                committed.as_micros(),
                                roots.state_root.0[0],
                                self.height,
                            );
                        }
                    }
                }
            }
            let txs = batch
                .iter()
                .zip(&costs)
                .map(|(&id, cost)| (self.pool.meta(id).id, cost.ok))
                .collect();
            self.awaiting.push_back(PendingFinality {
                height: self.height,
                committed,
                txs,
            });
        } else {
            self.persist_block(committed, 0, &[], false, &[]);
        }
        for id in batch {
            self.pool.release(id);
        }
        self.settle_finality();
    }
}

impl ChainSim {
    /// The chain this world simulates.
    pub fn chain(&self) -> Chain {
        self.chain
    }

    /// The state store, when the run enabled one.
    pub fn store(&self) -> Option<&StateStore> {
        self.store.as_ref()
    }

    /// The deployed contract's live state, if any.
    pub fn contract_state(&self) -> Option<&ContractState> {
        self.engine.contract().map(|c| &c.initial_state)
    }

    /// End of the submission phase.
    pub fn workload_end(&self) -> SimTime {
        self.workload_end
    }
}

impl World for ChainSim {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
        // Keep the telemetry clock on virtual time: spans and duration
        // records made anywhere below observe the event's instant.
        diablo_telemetry::clock::set_sim_now(now);
        match event {
            Ev::Tick(k) => self.submit_tick(now, k),
            Ev::Propose => {
                let next = self.propose(now);
                let next_at = now + next;
                if next_at <= self.deadline {
                    sched.at(next_at, Ev::Propose);
                }
                // Blocks past the deadline are not produced; anything
                // still awaiting confirmation depth remains Pending, as
                // it would in a real run cut off at the deadline.
            }
        }
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
        // 8M gas / 21k per transfer / 5 s period ≈ 76 TPS ceiling.
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
