//! The consensus layer: when a round commits and what it costs.
//!
//! [`ChainSim::propose`] runs one round of the chain's protocol against
//! the [`QuorumModel`](diablo_net::QuorumModel) latencies, the fault
//! timeline and the run's RNG, and hands back a [`Round`] for the run
//! loop to apply. Nothing here drains the pool, executes or persists.

use diablo_sim::{SimDuration, SimTime};

use super::ChainSim;
use crate::params::ConsensusKind;

/// What one consensus round decided.
pub(super) enum Round {
    /// A block commits at `commit`. `exec_share` is the (unjittered)
    /// verification-plus-execution estimate folded into `commit`; zero
    /// for the protocols whose fitted rounds absorb execution.
    Block {
        commit: SimTime,
        exec_share: SimDuration,
    },
    /// The chain advances by one empty block at `commit` (a skipped or
    /// timed-out slot still deepens confirmations).
    Empty { commit: SimTime },
    /// The round was consumed without extending the chain.
    Wasted,
}

/// When the next proposal follows this one.
pub(super) enum Next {
    /// After a fixed delay.
    After(SimDuration),
    /// Avalanche's throttle: `loaded` while a full block still waits in
    /// the pool once this round's block is drained, else `idle`.
    Throttled {
        loaded: SimDuration,
        idle: SimDuration,
    },
}

/// A round that extended nothing; the next proposal follows `delay`
/// later.
fn wasted(delay: SimDuration) -> (Round, Next) {
    (Round::Wasted, Next::After(delay))
}

/// How long a chain that cannot commit waits before probing again.
const STALL_PROBE: SimDuration = SimDuration::from_millis(1_000);

impl ChainSim {
    /// Runs one consensus round at `now`: what it decided, and when the
    /// next proposal follows.
    pub(super) fn propose(&mut self, now: SimTime) -> (Round, Next) {
        self.rounds += 1;
        let n = self.qmodel.node_count();
        let leader = self.proposer % n;
        self.proposer = (self.proposer + 1) % n;

        // Injected faults: quorum loss, partitions, crashed leaders and
        // lost messages can consume the round before consensus starts.
        if !self.timeline.is_empty() {
            if let Some(consumed) = self.fault_round(now, leader, n) {
                return consumed;
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
                    let timeout = self.pacemaker;
                    self.pacemaker = (self.pacemaker * 2).min(pacemaker_cap);
                    return wasted(timeout.max(min_round));
                }
                self.pacemaker = pacemaker_base;
                diablo_telemetry::record_duration!("consensus.hotstuff.phase_us", phase);
                diablo_telemetry::record_duration!("consensus.hotstuff.round_us", phase * 3);
                let commit = now + phase * 3; // three-chain commit
                // HotStuff's fitted round model absorbs verification
                // and execution; no explicit execution share.
                let exec_share = SimDuration::ZERO;
                (Round::Block { commit, exec_share }, Next::After(phase.max(min_round)))
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
                // IBFT does not pipeline: the next proposal follows the
                // previous commit.
                (Round::Block { commit, exec_share: exec }, Next::After(total.max(min_period)))
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
                (Round::Block { commit, exec_share: exec }, Next::After(period))
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
                let exec_share = SimDuration::ZERO;
                (Round::Block { commit, exec_share }, Next::After(round))
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
                let next = Next::Throttled {
                    loaded: period_loaded,
                    idle: period_idle,
                };
                (Round::Block { commit, exec_share: exec }, next)
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
                (Round::Block { commit, exec_share: exec }, Next::After(total.max(min_period)))
            }
            ConsensusKind::TowerBft { slot, skip_rate } => {
                if self.rng.chance(skip_rate) {
                    // Skipped slot: absent or lagging leader — the chain
                    // still advances one (empty) slot.
                    diablo_telemetry::counter!("consensus.tower_bft.skipped_slots");
                    return (Round::Empty { commit: now + slot }, Next::After(slot));
                }
                let exec = self.exec_delay_estimate(now);
                diablo_telemetry::record_duration!("consensus.tower_bft.round_us", slot + exec);
                let commit = now + slot + exec;
                (Round::Block { commit, exec_share: exec }, Next::After(slot))
            }
        }
    }

    /// Checks the fault timeline before a consensus round: returns the
    /// consumed round (stall probe, wasted view change) when a fault
    /// prevents this proposal, `None` when the round may proceed. Sets
    /// `round_stretch` for retransmission delays in the proceeding case.
    fn fault_round(&mut self, now: SimTime, leader: usize, n: usize) -> Option<(Round, Next)> {
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
            return Some(wasted(STALL_PROBE));
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
                    return Some(wasted(STALL_PROBE));
                }
                // Clique PoA: each signer may only sign every
                // floor(n/2)+1 blocks, so a half-or-smaller component
                // cannot extend the chain.
                ConsensusKind::Clique { .. } if live * 2 <= n => {
                    diablo_telemetry::counter!("consensus.stalls.partition");
                    return Some(wasted(STALL_PROBE));
                }
                // BA★ sortition: below half the stake the protocol
                // stalls; above it, rounds whose selected proposers
                // fall in a minority component fail probabilistically
                // and gossip slows with the missing relays.
                ConsensusKind::AlgorandBa { .. } => {
                    if live * 2 <= n {
                        diablo_telemetry::counter!("consensus.stalls.partition");
                        return Some(wasted(STALL_PROBE));
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
    fn wasted_round(&mut self, now: SimTime) -> (Round, Next) {
        match self.params.consensus {
            ConsensusKind::HotStuff {
                pacemaker_base,
                pacemaker_cap,
                ..
            } => {
                let timeout = self.pacemaker.max(pacemaker_base);
                self.pacemaker = (self.pacemaker * 2).min(pacemaker_cap);
                wasted(timeout)
            }
            ConsensusKind::Ibft { min_period, .. } => wasted(min_period * 3),
            ConsensusKind::AlgorandBa { round_base, .. } => wasted(round_base),
            ConsensusKind::AvalancheSnow { period_loaded, .. } => wasted(period_loaded),
            // Leaderless: a dead node merely contributes no proposal;
            // the round proceeds without it after the batch timeout.
            ConsensusKind::LeaderlessDbft { min_period, .. } => wasted(min_period),
            ConsensusKind::Clique { period: slot } | ConsensusKind::TowerBft { slot, .. } => {
                (Round::Empty { commit: now + slot }, Next::After(slot))
            }
        }
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
}
