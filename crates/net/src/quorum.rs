//! Analytic quorum-latency model for consensus protocols.
//!
//! Simulating every vote of a 200-node BFT protocol means O(n²) events
//! per block; the commit latency of a phase, however, is exactly an order
//! statistic over point-to-point delays. This module computes those order
//! statistics from the Table 3 region-pair delays:
//!
//! - *leader-based linear* protocols (HotStuff): a phase is leader → all,
//!   then all → leader votes; the phase completes when the leader holds a
//!   quorum of votes, i.e. at the `q`-th smallest of
//!   `d(L, i) + d(i, L)`.
//! - *leader-based all-to-all* protocols (IBFT/PBFT): after the leader's
//!   pre-prepare, every node broadcasts; node `i` completes the phase at
//!   the `q`-th smallest of `arrive_j + d(j, i)` over senders `j`.
//! - *gossip* protocols (Algorand, Avalanche, Solana): diffusion over a
//!   fanout-`k` overlay reaches all nodes in ~`log_k n` hops of the
//!   median one-way delay.
//!
//! # Region classes
//!
//! A one-way delay depends only on the (region, region) pair, and there
//! are [`Region::COUNT`] regions, so the `n` arrival times a node sees
//! take at most `R + 2` distinct values: its own message, its
//! same-region peers, each other region, and the leader (whose start
//! time differs from its region's). Every query therefore selects the
//! `q`-th smallest of a handful of `(value, multiplicity)` terms held on
//! the stack, and all non-leader nodes of a region share one result.
//! Each term is the same `f64` sum the per-node form would compute, so
//! results are bit-identical to sorting all `n` arrivals at every node
//! (the oracle in `tests/net_properties.rs`), at O(R² log R) per IBFT
//! commit instead of O(n² log n), with no allocation and no state that
//! grows faster than the per-node region index.
//!
//! All figures use jitter-mean delays; the chain simulations add the
//! stochastic component per block.

use diablo_sim::SimDuration;

use crate::config::DeploymentConfig;
use crate::model::NetworkModel;
use crate::region::Region;

const R: usize = Region::COUNT;

/// Size of a consensus vote/ack message in bytes.
const VOTE_BYTES: u64 = 256;

/// Mean one-way delays (seconds) between the region classes of a
/// deployment.
#[derive(Debug, Clone)]
pub struct QuorumModel {
    n: usize,
    byzantine_f: usize,
    quorum: usize,
    /// Region of each node, in node-id order.
    region: Vec<Region>,
    /// Nodes per region.
    count: [usize; R],
    /// `delay[a][b]` = mean one-way delay of a vote-sized message from a
    /// node in region `a` to another node in region `b`.
    delay: [[f64; R]; R],
    /// Median of `delay[a][·]` over the `n - 1` peers of a node in `a`.
    median: [f64; R],
}

/// A multiset of up to `R + 2` distinct times, as `(value,
/// multiplicity)` terms.
struct Terms {
    terms: [(f64, usize); R + 2],
    len: usize,
}

impl Terms {
    fn new() -> Self {
        Terms {
            terms: [(0.0, 0); R + 2],
            len: 0,
        }
    }

    /// Adds `count` copies of `value`.
    fn push(&mut self, value: f64, count: usize) {
        if count > 0 {
            self.terms[self.len] = (value, count);
            self.len += 1;
        }
    }

    /// The `k`-th smallest value of the multiset (1-indexed); `k` is
    /// clamped to its size.
    fn kth_smallest(mut self, k: usize) -> f64 {
        let terms = &mut self.terms[..self.len];
        assert!(!terms.is_empty(), "kth_smallest needs values");
        terms.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("delays are not NaN"));
        let size: usize = terms.iter().map(|t| t.1).sum();
        let k = k.clamp(1, size);
        let mut seen = 0;
        terms
            .iter()
            .find(|&&(_, count)| {
                seen += count;
                seen >= k
            })
            .expect("k is clamped to the multiset size")
            .0
    }
}

/// Extra one-way delay for a payload of `bytes` relative to a vote-sized
/// message (serialization only).
fn payload_extra(bytes: u64) -> f64 {
    // Serialization time beyond the vote baseline, at a conservative
    // 100 Mbps WAN floor; propagation is already in `delay`.
    (bytes.saturating_sub(VOTE_BYTES)) as f64 * 8.0 / 100e6
}

impl QuorumModel {
    /// Builds the model for a deployment under a network model.
    pub fn new(config: &DeploymentConfig, net: &NetworkModel) -> Self {
        let region: Vec<Region> = config.sites().iter().map(|s| s.region).collect();
        let mut count = [0usize; R];
        for r in &region {
            count[r.index()] += 1;
        }
        // Alongside the delay table, the pairwise link profile of the
        // deployment, captured once at model build: the distribution
        // every phase latency below is an order statistic of. One
        // weighted record stands for a region pair's ordered node pairs.
        let mut delay = [[0.0; R]; R];
        for from in Region::ALL {
            for to in Region::ALL {
                let (a, b) = (from.index(), to.index());
                let d = net.mean_delay(from, to, VOTE_BYTES).as_secs_f64();
                delay[a][b] = d;
                let receivers = if a == b {
                    count[b].saturating_sub(1)
                } else {
                    count[b]
                };
                if d > 0.0 {
                    diablo_telemetry::record_n(
                        "net.link.delay_us",
                        (d * 1e6) as u64,
                        (count[a] * receivers) as u64,
                    );
                }
            }
        }
        let mut model = QuorumModel {
            n: region.len(),
            byzantine_f: config.byzantine_f(),
            quorum: config.quorum(),
            region,
            count,
            delay,
            median: [0.0; R],
        };
        if model.n > 1 {
            for a in (0..R).filter(|&a| count[a] > 0) {
                model.median[a] = model.delays_from(a).kth_smallest((model.n - 1) / 2 + 1);
            }
        }
        model
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Byzantine fault threshold `f` of the deployment.
    pub fn byzantine_f(&self) -> usize {
        self.byzantine_f
    }

    /// BFT quorum size (2f + 1).
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// Mean one-way vote delay from node `i` to node `j`, in seconds.
    pub fn delay_secs(&self, i: usize, j: usize) -> f64 {
        if i == j {
            0.0
        } else {
            self.delay[self.region[i].index()][self.region[j].index()]
        }
    }

    /// The region class of `node` and the number of *other* nodes in
    /// each region.
    fn peers_of(&self, node: usize) -> (usize, [usize; R]) {
        let at = self.region[node].index();
        let mut peers = self.count;
        peers[at] -= 1;
        (at, peers)
    }

    /// One-way vote delays from a node in region `from` to the `n - 1`
    /// other nodes.
    fn delays_from(&self, from: usize) -> Terms {
        let mut delays = Terms::new();
        for r in 0..R {
            delays.push(self.delay[from][r], self.count[r] - usize::from(r == from));
        }
        delays
    }

    /// When a `bytes`-sized proposal from a leader in region `leader_at`
    /// reaches a follower, by the follower's region.
    fn proposal_arrival(&self, leader_at: usize, bytes: u64) -> [f64; R] {
        let extra = payload_extra(bytes);
        self.delay[leader_at].map(|d| d + extra)
    }

    /// Time for a leader broadcast of `bytes` to reach all nodes.
    pub fn broadcast_all(&self, leader: usize, bytes: u64) -> SimDuration {
        let (leader_at, followers) = self.peers_of(leader);
        let arrive = self.proposal_arrival(leader_at, bytes);
        let worst = (0..R)
            .filter(|&r| followers[r] > 0)
            .map(|r| arrive[r])
            .fold(0.0, f64::max);
        diablo_telemetry::counter!(
            "net.bytes.proposals",
            bytes * self.n.saturating_sub(1) as u64
        );
        SimDuration::from_secs_f64(worst)
    }

    /// Time for a leader broadcast of `bytes` to reach a quorum of nodes.
    pub fn broadcast_quorum(&self, leader: usize, bytes: u64) -> SimDuration {
        let (leader_at, followers) = self.peers_of(leader);
        let arrive = self.proposal_arrival(leader_at, bytes);
        let mut arrivals = Terms::new();
        arrivals.push(0.0, 1);
        for r in 0..R {
            arrivals.push(arrive[r], followers[r]);
        }
        diablo_telemetry::counter!(
            "net.bytes.proposals",
            bytes * self.n.saturating_sub(1) as u64
        );
        SimDuration::from_secs_f64(arrivals.kth_smallest(self.quorum))
    }

    /// One linear (HotStuff-style) phase: leader sends `bytes`, nodes
    /// reply with votes, phase ends when the leader holds a quorum.
    pub fn linear_phase(&self, leader: usize, bytes: u64) -> SimDuration {
        let (leader_at, followers) = self.peers_of(leader);
        let arrive = self.proposal_arrival(leader_at, bytes);
        let mut round_trips = Terms::new();
        round_trips.push(0.0, 1);
        for r in 0..R {
            round_trips.push(arrive[r] + self.delay[r][leader_at], followers[r]);
        }
        let peers = self.n.saturating_sub(1) as u64;
        diablo_telemetry::counter!("net.bytes.proposals", bytes * peers);
        diablo_telemetry::counter!("net.bytes.votes", VOTE_BYTES * peers);
        let phase = SimDuration::from_secs_f64(round_trips.kth_smallest(self.quorum));
        diablo_telemetry::record_duration!("net.phase.linear_us", phase);
        phase
    }

    /// HotStuff commit latency for a proposal of `bytes`: the three-chain
    /// rule needs three linear phases (prepare, pre-commit, commit); only
    /// the first carries the block payload.
    pub fn hotstuff_commit(&self, leader: usize, bytes: u64) -> SimDuration {
        self.linear_phase(leader, bytes)
            + self.linear_phase(leader, VOTE_BYTES)
            + self.linear_phase(leader, VOTE_BYTES)
    }

    /// IBFT/PBFT commit latency for a proposal of `bytes`: pre-prepare
    /// (leader → all) followed by two all-to-all phases (prepare,
    /// commit). Completion is measured at the leader (the node the
    /// collocated Diablo Secondary polls).
    pub fn ibft_commit(&self, leader: usize, bytes: u64) -> SimDuration {
        let (leader_at, followers) = self.peers_of(leader);
        // Pre-prepare arrival times; the leader holds its own at 0.
        let arrive = self.proposal_arrival(leader_at, bytes);
        // Prepare: every node broadcasts when the pre-prepare arrives and
        // is "prepared" once it holds a quorum of prepares. A follower
        // in region `r` hears itself, the leader, and every other
        // follower by region.
        let mut prepared = [0.0; R];
        for r in (0..R).filter(|&r| followers[r] > 0) {
            let mut others = followers;
            others[r] -= 1;
            let mut prepares = self.round_arrivals(r, arrive[r], &others, &arrive);
            prepares.push(self.delay[leader_at][r], 1);
            prepared[r] = prepares.kth_smallest(self.quorum);
        }
        let leader_prepared = self
            .round_arrivals(leader_at, 0.0, &followers, &arrive)
            .kth_smallest(self.quorum);
        // Commit: every node broadcasts when prepared; the block is
        // committed at the leader once it holds a quorum of commits.
        let committed = self
            .round_arrivals(leader_at, leader_prepared, &followers, &prepared)
            .kth_smallest(self.quorum);
        let n = self.n as u64;
        diablo_telemetry::counter!("net.bytes.proposals", bytes * n.saturating_sub(1));
        // Two all-to-all vote rounds: every node broadcasts to every
        // other node in each.
        diablo_telemetry::counter!("net.bytes.votes", 2 * VOTE_BYTES * n * n.saturating_sub(1));
        let d = SimDuration::from_secs_f64(committed);
        diablo_telemetry::record_duration!("net.phase.ibft_commit_us", d);
        d
    }

    /// Arrival times at a node in region `at` of one all-to-all round:
    /// its own message at `own`, and from each region `s` the
    /// `senders[s]` nodes that broadcast at `start[s]`.
    fn round_arrivals(&self, at: usize, own: f64, senders: &[usize; R], start: &[f64; R]) -> Terms {
        let mut arrivals = Terms::new();
        arrivals.push(own, 1);
        for s in 0..R {
            arrivals.push(start[s] + self.delay[s][at], senders[s]);
        }
        arrivals
    }

    /// Gossip diffusion time from `origin` to (almost) all nodes over a
    /// fanout-`k` overlay: `ceil(log_k n)` hops of the per-hop delay,
    /// where a hop costs the `p75` one-way delay from the origin's view
    /// of the network plus per-hop payload serialization.
    pub fn gossip_all(&self, origin: usize, fanout: usize, bytes: u64) -> SimDuration {
        if self.n <= 1 {
            return SimDuration::ZERO;
        }
        let fanout = fanout.max(2) as f64;
        let hops = (self.n as f64).ln() / fanout.ln();
        let hops = hops.ceil().max(1.0);
        let p75 = self
            .delays_from(self.region[origin].index())
            .kth_smallest((self.n - 1) * 3 / 4 + 1);
        let per_hop = p75 + payload_extra(bytes);
        // Diffusion delivers the payload to every other node once.
        diablo_telemetry::counter!("net.bytes.gossip", bytes * self.n.saturating_sub(1) as u64);
        let d = SimDuration::from_secs_f64(hops * per_hop);
        diablo_telemetry::record_duration!("net.phase.gossip_us", d);
        d
    }

    /// Median one-way vote delay from a node's point of view, in seconds.
    pub fn median_delay_from(&self, origin: usize) -> f64 {
        self.median[self.region[origin].index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeploymentConfig, DeploymentKind};
    use crate::machine::InstanceType;
    use crate::region::Region;

    fn local(n: usize) -> QuorumModel {
        let cfg = DeploymentConfig::single_region(
            DeploymentKind::Datacenter,
            n,
            Region::Ohio,
            InstanceType::C59xlarge,
        );
        QuorumModel::new(&cfg, &NetworkModel::deterministic())
    }

    fn geo(n: usize) -> QuorumModel {
        let cfg = DeploymentConfig::spread(DeploymentKind::Devnet, n, InstanceType::C5Xlarge);
        QuorumModel::new(&cfg, &NetworkModel::deterministic())
    }

    #[test]
    fn local_phases_are_milliseconds() {
        let m = local(10);
        assert!(m.linear_phase(0, 1024) < SimDuration::from_millis(3));
        assert!(m.ibft_commit(0, 1024) < SimDuration::from_millis(5));
        assert!(m.hotstuff_commit(0, 1024) < SimDuration::from_millis(6));
    }

    #[test]
    fn geo_phases_are_hundreds_of_milliseconds() {
        let m = geo(10);
        let phase = m.linear_phase(0, 1024);
        assert!(phase > SimDuration::from_millis(100), "phase was {phase}");
        assert!(phase < SimDuration::from_secs(1));
        // HotStuff needs three phases, so it is strictly slower.
        assert!(m.hotstuff_commit(0, 1024) > phase * 2);
    }

    #[test]
    fn quorum_is_faster_than_all() {
        let m = geo(10);
        assert!(m.broadcast_quorum(0, 4096) <= m.broadcast_all(0, 4096));
    }

    #[test]
    fn bigger_payload_is_slower() {
        let m = geo(10);
        assert!(m.broadcast_all(0, 1_000_000) > m.broadcast_all(0, 1_000));
        assert!(m.ibft_commit(0, 1_000_000) > m.ibft_commit(0, 1_000));
    }

    #[test]
    fn ibft_commit_depends_on_leader_placement() {
        let m = geo(10);
        let all: Vec<f64> = (0..10)
            .map(|l| m.ibft_commit(l, 10_000).as_secs_f64())
            .collect();
        let min = all.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = all.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "leader placement should matter: {all:?}");
    }

    #[test]
    fn gossip_scales_logarithmically() {
        let small = geo(10).gossip_all(0, 8, 1024).as_secs_f64();
        let large = {
            let cfg =
                DeploymentConfig::spread(DeploymentKind::Community, 200, InstanceType::C5Xlarge);
            QuorumModel::new(&cfg, &NetworkModel::deterministic())
                .gossip_all(0, 8, 1024)
                .as_secs_f64()
        };
        // 200 nodes need at most one more hop tier than 10 at fanout 8.
        assert!(large <= small * 3.0, "small {small} large {large}");
        assert!(large >= small, "more nodes cannot be faster");
    }

    #[test]
    fn single_node_deployment_is_instant() {
        let m = local(1);
        assert_eq!(m.broadcast_all(0, 1024), SimDuration::ZERO);
        assert_eq!(m.gossip_all(0, 8, 1024), SimDuration::ZERO);
    }

    fn terms(values: &[(f64, usize)]) -> Terms {
        let mut t = Terms::new();
        for &(v, count) in values {
            t.push(v, count);
        }
        t
    }

    #[test]
    fn kth_smallest_selects_correctly() {
        let v = [(5.0, 1), (1.0, 1), (3.0, 1)];
        assert_eq!(terms(&v).kth_smallest(1), 1.0);
        assert_eq!(terms(&v).kth_smallest(2), 3.0);
        assert_eq!(terms(&v).kth_smallest(3), 5.0);
        // Clamped above and below.
        assert_eq!(terms(&v).kth_smallest(10), 5.0);
        assert_eq!(terms(&v).kth_smallest(0), 1.0);
    }

    #[test]
    fn kth_smallest_counts_multiplicities() {
        // The multiset {1, 3, 3, 3, 5, 5}; empty terms are dropped.
        let v = [(5.0, 2), (1.0, 1), (7.0, 0), (3.0, 3)];
        let picks: Vec<f64> = (1..=6).map(|k| terms(&v).kth_smallest(k)).collect();
        assert_eq!(picks, [1.0, 3.0, 3.0, 3.0, 5.0, 5.0]);
        assert_eq!(terms(&v).kth_smallest(7), 5.0);
    }
}
