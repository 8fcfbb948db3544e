//! The chain simulation: one run's state and the loop that drives it.
//!
//! A run is Secondaries submitting on a fixed schedule while the chain
//! produces blocks at its own cadence (§4, §5.2), so the loop
//! (`ChainSim::run_until`) merges two cursors:
//!
//! - **submission ticks** (every 100 ms): the collocated Diablo
//!   Secondaries inject the workload's transactions into their nodes'
//!   mempools, stamping submission times (`submit.rs`);
//! - **block production**: the chain's consensus produces blocks at its
//!   own cadence (fixed slots for Solana, throttled periods for
//!   Avalanche and Clique, commit-chained rounds for IBFT, pipelined
//!   rounds with a pacemaker for HotStuff, gossip-and-vote rounds for
//!   Algorand), each carrying admission, assembly, execution and
//!   consensus latency (`consensus.rs` decides when a round commits,
//!   `commit.rs` fills, executes and persists the block).
//!
//! Committed transactions are *decided* once the block gains the chain's
//! confirmation depth and the polling client notices (§4, §5.2).

mod commit;
mod consensus;
mod submit;

use std::collections::VecDeque;

use diablo_contracts::calls;
use diablo_net::QuorumModel;
use diablo_sim::{DetRng, SimDuration, SimTime};
use diablo_store::{StateStore, StorageConfig, StorageReport};
use diablo_telemetry::trace::{TraceSample, TraceSet, TraceStage, Tracer};
use diablo_vm::ContractState;
use diablo_workloads::TICK_MS;

use crate::chain::Chain;
use crate::exec::ExecutionEngine;
use crate::faults::{FaultPlan, FaultTimeline};
use crate::fees::FeeMarket;
use crate::harness::PlannedTx;
use crate::mempool::Mempool;
use crate::params::{ChainParams, ConsensusKind};
use crate::records::{BlockRecord, TxRecord};
use crate::tx::Payload;

use consensus::{Next, Round};

/// A block whose transactions await confirmation depth.
struct PendingFinality {
    /// Height at which the block committed.
    height: u64,
    /// Commit instant.
    committed: SimTime,
    /// `(record index, execution succeeded)` per transaction.
    txs: Vec<(u32, bool)>,
}

/// The state of one chain run.
pub struct ChainSim {
    chain: Chain,
    params: ChainParams,
    qmodel: QuorumModel,
    rng: DetRng,
    pool: Mempool,
    fee: FeeMarket,
    engine: ExecutionEngine,
    /// Per-transaction records, indexed by `TxId` (what Secondaries
    /// report from).
    records: Vec<TxRecord>,
    /// The submission plan, time-sorted and cut to the entries whose
    /// tick is due by the deadline. Record `i` belongs to `plan[i]`, so
    /// `records.len()` is the submission cursor.
    plan: Vec<PlannedTx>,
    /// The next submission tick, due at `next_tick * TICK_MS`.
    next_tick: u32,
    /// Number of submission ticks: through the last planned instant.
    ticks: u32,
    /// Instant of the next proposal; `None` once it would fall past the
    /// deadline.
    next_proposal: Option<SimTime>,
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
    /// Block-explorer records, one per produced block, indexed by
    /// `height - 1`.
    blocks: Vec<BlockRecord>,
    /// Per-sender id of the first dropped transaction: later
    /// transactions of that account are stalled behind the nonce gap
    /// (`u32::MAX` = no gap).
    broken_from: Vec<u32>,
    /// Submitted transactions per second (offered load; drives the
    /// admission-overload model).
    arrival_per_sec: Vec<u64>,
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
    /// The per-transaction tracer, when the run is traced: one owner on
    /// the single-threaded loop, armed for the ids `0..plan.len()`.
    tracer: Option<Tracer>,
    /// A tick's gossip delays, recorded and drained in one piece at its end.
    gossip_us: Vec<u64>,
}

impl ChainSim {
    /// Builds the run state over a time-sorted submission plan.
    pub(crate) fn from_plan(
        chain: Chain,
        params: ChainParams,
        qmodel: QuorumModel,
        mut engine: ExecutionEngine,
        mut plan: Vec<PlannedTx>,
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
        debug_assert!(plan.windows(2).all(|w| w[0].at <= w[1].at));
        let last = plan.last().map_or(SimTime::ZERO, |tx| tx.at);
        let mut arrival_per_sec = vec![0u64; last.second_bucket() as usize + 1];
        for tx in &plan {
            arrival_per_sec[tx.at.second_bucket() as usize] += 1;
        }
        // The last tick due by the deadline submits what is planned
        // before its end; later entries never get a record. Cutting them
        // here fixes the run's ids, `0..plan.len()`, before the first
        // event — what the tracer is armed with. The offered load above
        // is counted first: it covers the whole plan.
        let last_tick_end = (deadline.as_micros() / (TICK_MS * 1000) + 1) * TICK_MS;
        plan.truncate(plan.partition_point(|tx| tx.at < SimTime::from_millis(last_tick_end)));
        let last = plan.last().map_or(SimTime::ZERO, |tx| tx.at);
        let ticks = (last.as_micros() / (TICK_MS * 1000) + 1) as u32;
        let accounts = params.accounts as usize;
        ChainSim {
            chain,
            params,
            qmodel,
            rng,
            pool,
            fee,
            engine,
            records: Vec::with_capacity(plan.len()),
            plan,
            next_tick: 0,
            ticks,
            next_proposal: Some(SimTime::ZERO),
            height: 0,
            rounds: 0,
            proposer: 0,
            gas_estimate: probe_cost.gas.max(1),
            ops_estimate: probe_cost.ops.max(1),
            wire_estimate,
            pacemaker,
            awaiting: VecDeque::new(),
            blocks: Vec::new(),
            broken_from: vec![u32::MAX; accounts.max(1)],
            arrival_per_sec,
            deadline,
            faults: FaultPlan::none(),
            timeline: FaultTimeline::empty(),
            round_stretch: 1.0,
            store: None,
            live: None,
            tracer: None,
            gossip_us: Vec::new(),
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

    /// Arms the per-transaction tracer over the ids this run will
    /// submit; membership is keyed on `seed` so re-runs sample the same
    /// transactions.
    pub(crate) fn with_tracer(mut self, sample: Option<TraceSample>, seed: u64) -> Self {
        self.tracer = sample.and_then(|s| Tracer::arm(s, seed, self.plan.len() as u64));
        self
    }

    /// Attaches an injected-fault schedule (compiled once against the
    /// deployment's node count).
    pub(crate) fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.timeline = faults.compile(self.qmodel.node_count());
        self.faults = faults;
        self
    }

    /// Runs every submission tick and proposal due at or before
    /// `until`, in time order; at equal instants the tick runs first, so
    /// a block sees what was submitted at its own instant. `pace` sees
    /// each instant before its event (live mode sleeps there). Calling
    /// this twice with growing `until` is one run cut in two; each call
    /// leaves the telemetry clock at `until`, so a span around it ends
    /// on the phase boundary.
    ///
    /// A proposal that would fall past the deadline is not scheduled:
    /// anything still awaiting confirmation depth remains `Pending`, as
    /// it would in a real run cut off at the deadline. Ticks past
    /// `until` never fire; a plan longer than the run lost its tail in
    /// [`ChainSim::from_plan`] and leaves it without records.
    pub(crate) fn run_until(&mut self, until: SimTime, mut pace: impl FnMut(SimTime)) {
        loop {
            let tick = (self.next_tick < self.ticks)
                .then(|| SimTime::from_millis(self.next_tick as u64 * TICK_MS));
            let (at, is_tick) = match (tick, self.next_proposal) {
                (Some(tick), Some(proposal)) => (tick.min(proposal), tick <= proposal),
                (Some(tick), None) => (tick, true),
                (None, Some(proposal)) => (proposal, false),
                (None, None) => break,
            };
            if at > until {
                break;
            }
            pace(at);
            // Keep the telemetry clock on virtual time: spans and
            // duration records made anywhere below observe the event's
            // instant.
            diablo_telemetry::clock::set_sim_now(at);
            if is_tick {
                self.submit_tick(self.next_tick);
                self.next_tick += 1;
            } else {
                let next = at + self.produce_block(at);
                self.next_proposal = (next <= self.deadline).then_some(next);
            }
        }
        diablo_telemetry::clock::set_sim_now(until);
    }

    /// One proposal: consensus decides the round, the data and execution
    /// layers apply it. Returns the delay until the next proposal.
    fn produce_block(&mut self, now: SimTime) -> SimDuration {
        self.evict_expired(now);
        let (round, next) = self.propose(now);
        match round {
            Round::Block { commit, exec_share } => self.commit_block(now, commit, exec_share),
            Round::Empty { commit } => self.commit_empty(commit),
            Round::Wasted => {}
        }
        match next {
            Next::After(delay) => delay,
            Next::Throttled { loaded, idle } => {
                if self.pool.len() >= self.params.block_tx_limit {
                    loaded
                } else {
                    idle
                }
            }
        }
    }

    /// Records one lifecycle event of transaction `id` when the run is
    /// traced; an untraced run pays the test of the `Option`.
    #[inline]
    fn trace(&mut self, id: u32, stage: TraceStage, at: SimTime, arg0: u64, arg1: u64) {
        if let Some(tracer) = &mut self.tracer {
            tracer.emit(id as u64, stage, at.as_micros(), arg0, arg1);
        }
    }

    /// Consumes the run, yielding the per-transaction records, the
    /// block-explorer records, the storage report (when the store was
    /// enabled) and the traces (when the run was traced).
    ///
    /// # Panics
    ///
    /// Panics if a traced run was not driven to its deadline: the
    /// tracer's membership was decided over the ids of the whole run.
    pub(crate) fn into_records(
        self,
    ) -> (
        Vec<TxRecord>,
        Vec<BlockRecord>,
        Option<StorageReport>,
        Option<TraceSet>,
    ) {
        let storage = self.store.as_ref().map(StateStore::report);
        let trace = self.tracer.map(|tracer| {
            let submitted = self.records.len() as u64;
            assert_eq!(submitted, tracer.armed_for(), "tracer armed for other ids");
            tracer.finish()
        });
        (self.records, self.blocks, storage, trace)
    }

    /// The chain this run simulates.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecMode;
    use diablo_net::{DeploymentConfig, DeploymentKind, NetworkModel};

    /// Quorum (IBFT, one block per second-long round, no confirmation
    /// depth) over `plan`, built from the layers alone.
    fn quorum(plan: Vec<PlannedTx>, deadline: SimTime) -> ChainSim {
        let chain = Chain::Quorum;
        let config = DeploymentConfig::standard(DeploymentKind::Testnet);
        ChainSim::from_plan(
            chain,
            ChainParams::standard(chain, &config),
            QuorumModel::new(&config, &NetworkModel::default()),
            ExecutionEngine::native(chain.vm_flavor(), ExecMode::Profiled),
            plan,
            42,
            deadline,
        )
    }

    /// `per_tick` transfers at the start of each of the first `ticks`
    /// submission ticks.
    fn plan(ticks: u64, per_tick: u32) -> Vec<PlannedTx> {
        (0..ticks)
            .flat_map(|k| {
                (0..per_tick).map(move |sender| PlannedTx {
                    at: SimTime::from_millis(k * TICK_MS),
                    sender,
                    payload: Payload::Transfer,
                })
            })
            .collect()
    }

    #[test]
    fn a_tick_runs_before_the_proposal_of_its_instant() {
        // Tick 0 and the first proposal are both due at t = 0. IBFT's
        // assembly and execution costs grow with the backlog, so the
        // first block commits later exactly when the tick's submissions
        // were already in the pool.
        let mut empty = quorum(Vec::new(), SimTime::from_secs(1));
        let mut loaded = quorum(plan(1, 50), SimTime::from_secs(1));
        empty.run_until(SimTime::ZERO, |_| {});
        loaded.run_until(SimTime::ZERO, |_| {});
        assert_eq!(loaded.records.len(), 50);
        assert_eq!((empty.blocks.len(), loaded.blocks.len()), (1, 1));
        assert!(loaded.blocks[0].committed > empty.blocks[0].committed);
    }

    #[test]
    fn events_at_until_are_delivered_and_later_ones_are_not() {
        // 21 ticks (0 ..= 2 s) against a 1 s deadline.
        let deadline = SimTime::from_secs(1);
        let mut sim = quorum(plan(21, 3), deadline);
        let mut paced = Vec::new();
        sim.run_until(deadline, |at| paced.push(at));
        // Ticks 0 ..= 10 fired, the one at exactly `until` included;
        // the plan's tail has no records.
        assert_eq!(sim.next_tick, 11);
        assert_eq!(sim.records.len(), 11 * 3);
        // The proposal at exactly the deadline ran; its successor would
        // fall past it and is not scheduled.
        assert_eq!(sim.rounds, 2);
        assert_eq!(sim.next_proposal, None);
        // `pace` saw every event once, in time order.
        assert_eq!(paced.len() as u64, 11 + sim.rounds);
        assert!(paced.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(paced.last(), Some(&deadline));
    }

    #[test]
    fn two_calls_equal_one() {
        let deadline = SimTime::from_secs(5);
        let mut whole = quorum(plan(30, 4), deadline);
        whole.run_until(deadline, |_| {});
        let mut halves = quorum(plan(30, 4), deadline);
        halves.run_until(SimTime::from_millis(1_250), |_| {});
        halves.run_until(deadline, |_| {});
        assert_eq!(whole.blocks, halves.blocks);
        assert_eq!(whole.records.len(), halves.records.len());
        for (w, h) in whole.records.iter().zip(&halves.records) {
            assert_eq!((w.submitted, w.decided, w.status), (h.submitted, h.decided, h.status));
        }
        assert!(whole.blocks.iter().any(|b| b.txs > 0), "nothing committed");
    }
}
