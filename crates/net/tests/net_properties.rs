//! Property tests of the network and quorum models, on the in-tree
//! `diablo-testkit` harness.

use diablo_testkit::gen::{choice, from_slice, u64s, usizes, vecs, Gen};
use diablo_testkit::{prop_assert, prop_assert_eq, Property};

use diablo_net::{
    bandwidth_mbps, rtt_ms, DeploymentConfig, DeploymentKind, InstanceType, MachineSpec,
    NetworkModel, NodeSite, QuorumModel, Region,
};
use diablo_sim::{DetRng, SimDuration};

fn region(idx: usize) -> Region {
    Region::ALL[idx % Region::COUNT]
}

/// The Table 3 accessors are symmetric for every pair.
#[test]
fn matrices_are_symmetric() {
    Property::new("matrices_are_symmetric").check(
        &(usizes(0..=9), usizes(0..=9)),
        |&(a, b)| {
            let (a, b) = (region(a), region(b));
            prop_assert_eq!(rtt_ms(a, b), rtt_ms(b, a));
            prop_assert_eq!(bandwidth_mbps(a, b), bandwidth_mbps(b, a));
            Ok(())
        },
    );
}

/// Message delay is monotone in payload size.
#[test]
fn delay_monotone_in_bytes() {
    Property::new("delay_monotone_in_bytes").check(
        &(
            usizes(0..=9),
            usizes(0..=9),
            u64s(0..=99_999),
            u64s(1..=999_999),
        ),
        |&(a, b, small, extra)| {
            let net = NetworkModel::deterministic();
            let mut rng = DetRng::new(0);
            let d_small = net.delay(&mut rng, region(a), region(b), small);
            let d_large = net.delay(&mut rng, region(a), region(b), small + extra);
            prop_assert!(
                d_large >= d_small,
                "{:?} < {:?} despite {extra} extra bytes",
                d_large,
                d_small
            );
            Ok(())
        },
    );
}

/// Quorum collection is never slower than full collection, and both grow
/// with the payload.
#[test]
fn quorum_bounds() {
    Property::new("quorum_bounds").check(
        &(usizes(4..=39), usizes(0..=39), u64s(0..=1_999_999)),
        |&(nodes, leader, bytes)| {
            let cfg = DeploymentConfig::spread(DeploymentKind::Devnet, nodes, InstanceType::C5Xlarge);
            let model = QuorumModel::new(&cfg, &NetworkModel::deterministic());
            let leader = leader % nodes;
            prop_assert!(model.broadcast_quorum(leader, bytes) <= model.broadcast_all(leader, bytes));
            prop_assert!(
                model.broadcast_all(leader, bytes + 1_000_000) >= model.broadcast_all(leader, bytes)
            );
            // A three-phase commit is at least as slow as one linear phase.
            prop_assert!(model.hotstuff_commit(leader, bytes) >= model.linear_phase(leader, bytes));
            // IBFT adds two all-to-all rounds on top of the pre-prepare.
            prop_assert!(model.ibft_commit(leader, bytes) >= model.broadcast_quorum(leader, bytes));
            Ok(())
        },
    );
}

/// Deployment partitioning invariants hold for any size.
#[test]
fn deployment_invariants() {
    Property::new("deployment_invariants").check(&usizes(1..=299), |&nodes| {
        let cfg = DeploymentConfig::spread(DeploymentKind::Community, nodes, InstanceType::C5Xlarge);
        prop_assert_eq!(cfg.node_count(), nodes);
        prop_assert!(cfg.region_count() <= Region::COUNT.min(nodes));
        // BFT math: n ≥ 3f + 1 and quorum = 2f + 1 ≤ n.
        let f = cfg.byzantine_f();
        prop_assert!(nodes > 3 * f);
        prop_assert!(cfg.quorum() <= nodes);
        prop_assert_eq!(cfg.quorum(), 2 * f + 1);
        Ok(())
    });
}

/// Jittered delays are deterministic per seed and never faster than the
/// deterministic base.
#[test]
fn jitter_determinism_and_bias() {
    Property::new("jitter_determinism_and_bias").check(
        &(usizes(0..=9), usizes(0..=9), u64s(0..=999)),
        |&(a, b, seed)| {
            let net = NetworkModel { jitter: 0.1 };
            let base =
                NetworkModel::deterministic().delay(&mut DetRng::new(0), region(a), region(b), 512);
            let d1 = net.delay(&mut DetRng::new(seed), region(a), region(b), 512);
            let d2 = net.delay(&mut DetRng::new(seed), region(a), region(b), 512);
            prop_assert_eq!(d1, d2);
            prop_assert!(d1 >= base);
            Ok(())
        },
    );
}

/// The per-node reference for [`QuorumModel`]'s queries: materialize all
/// `n` arrival times at every node from `delay_secs(i, j)` and sort them.
/// O(n² log n) per IBFT commit — the form the model ran before it moved
/// to region classes, kept here as the oracle it must match bit for bit.
struct PerNodeOracle<'a>(&'a QuorumModel);

impl PerNodeOracle<'_> {
    const VOTE_BYTES: u64 = 256;

    fn n(&self) -> usize {
        self.0.node_count()
    }

    fn payload_extra(bytes: u64) -> f64 {
        bytes.saturating_sub(Self::VOTE_BYTES) as f64 * 8.0 / 100e6
    }

    fn kth_smallest(mut values: Vec<f64>, k: usize) -> f64 {
        let k = k.clamp(1, values.len());
        values.sort_by(|a, b| a.partial_cmp(b).expect("delays are not NaN"));
        values[k - 1]
    }

    /// When the leader's proposal reaches each node.
    fn arrivals(&self, leader: usize, bytes: u64) -> Vec<f64> {
        (0..self.n())
            .map(|i| {
                if i == leader {
                    0.0
                } else {
                    self.0.delay_secs(leader, i) + Self::payload_extra(bytes)
                }
            })
            .collect()
    }

    fn broadcast_all(&self, leader: usize, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.arrivals(leader, bytes).into_iter().fold(0.0, f64::max))
    }

    fn broadcast_quorum(&self, leader: usize, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(Self::kth_smallest(
            self.arrivals(leader, bytes),
            self.0.quorum(),
        ))
    }

    fn linear_phase(&self, leader: usize, bytes: u64) -> SimDuration {
        let round_trips = (0..self.n())
            .map(|i| {
                if i == leader {
                    0.0
                } else {
                    self.0.delay_secs(leader, i)
                        + Self::payload_extra(bytes)
                        + self.0.delay_secs(i, leader)
                }
            })
            .collect();
        SimDuration::from_secs_f64(Self::kth_smallest(round_trips, self.0.quorum()))
    }

    fn hotstuff_commit(&self, leader: usize, bytes: u64) -> SimDuration {
        self.linear_phase(leader, bytes)
            + self.linear_phase(leader, Self::VOTE_BYTES)
            + self.linear_phase(leader, Self::VOTE_BYTES)
    }

    /// Every node `j` broadcasts at `start[j]`; when each node `i` holds
    /// a quorum of messages.
    fn all_to_all_round(&self, start: &[f64]) -> Vec<f64> {
        (0..self.n())
            .map(|i| {
                let arrivals = (0..self.n())
                    .map(|j| start[j] + self.0.delay_secs(j, i))
                    .collect();
                Self::kth_smallest(arrivals, self.0.quorum())
            })
            .collect()
    }

    fn ibft_commit(&self, leader: usize, bytes: u64) -> SimDuration {
        let prepared = self.all_to_all_round(&self.arrivals(leader, bytes));
        let committed = self.all_to_all_round(&prepared);
        SimDuration::from_secs_f64(committed[leader])
    }

    fn sorted_delays_from(&self, origin: usize) -> Vec<f64> {
        let mut delays: Vec<f64> = (0..self.n())
            .filter(|&i| i != origin)
            .map(|i| self.0.delay_secs(origin, i))
            .collect();
        delays.sort_by(|a, b| a.partial_cmp(b).expect("delays are not NaN"));
        delays
    }

    fn gossip_all(&self, origin: usize, fanout: usize, bytes: u64) -> SimDuration {
        if self.n() <= 1 {
            return SimDuration::ZERO;
        }
        let hops = ((self.n() as f64).ln() / (fanout.max(2) as f64).ln())
            .ceil()
            .max(1.0);
        let delays = self.sorted_delays_from(origin);
        let per_hop = delays[(delays.len() * 3) / 4] + Self::payload_extra(bytes);
        SimDuration::from_secs_f64(hops * per_hop)
    }

    fn median_delay_from(&self, origin: usize) -> f64 {
        let delays = self.sorted_delays_from(origin);
        delays.get(delays.len() / 2).copied().unwrap_or(0.0)
    }
}

/// Node placements for the differential test, from a shape selector and
/// a random region sequence: the uneven mixes a round-robin spread never
/// produces, plus the paper-scale spreads.
fn placement(shape: usize, mix: &[usize]) -> Vec<Region> {
    let cycle = |n: usize| (0..n).map(|i| region(mix[i % mix.len()])).collect();
    match shape {
        // Every node in one region.
        0 => vec![region(mix[0]); mix.len()],
        // n = 1…4, where the quorum is 1 or all but one.
        1 => cycle(mix.len().min(4)),
        // Node 0 alone in its region (a lone leader when it leads, a
        // one-node region otherwise).
        2 | 3 => (0..mix.len())
            .map(|i| match i {
                0 => region(mix[0]),
                _ => region(mix[0] + 1 + mix[i] % (Region::COUNT - 1)),
            })
            .collect(),
        // Paper scale, evenly spread and skewed.
        4 => (0..200).map(region).collect(),
        5 => cycle(200),
        6 => (0..1_000).map(region).collect(),
        // Whatever the region sequence says.
        _ => cycle(mix.len()),
    }
}

/// Every query of the class-based model equals the per-node oracle.
#[test]
fn quorum_model_matches_per_node_oracle() {
    let bytes = choice(vec![
        // Around and below the vote size, where the payload term is 0.
        u64s(0..=300).boxed(),
        u64s(0..=2_000_000).boxed(),
    ]);
    Property::new("quorum_model_matches_per_node_oracle").check(
        &(
            (usizes(0..=15), vecs(usizes(0..=9), 1..=40)),
            from_slice(&[0.0, 0.05]),
            usizes(0..=999),
            (bytes, usizes(0..=16)),
        ),
        |((shape, mix), jitter, pick, (bytes, fanout))| {
            let (bytes, fanout) = (*bytes, *fanout);
            let machine = MachineSpec::new(InstanceType::C5Xlarge);
            let sites = placement(*shape, mix)
                .into_iter()
                .map(|region| NodeSite { region, machine })
                .collect();
            let cfg = DeploymentConfig::from_sites(DeploymentKind::Devnet, sites);
            let model = QuorumModel::new(&cfg, &NetworkModel { jitter: *jitter });
            let oracle = PerNodeOracle(&model);
            // Shape 2 puts the leader on the node that is alone in its region.
            let node = match *shape {
                2 => 0,
                _ => pick % cfg.node_count(),
            };
            let queries = [
                (
                    "broadcast_all",
                    model.broadcast_all(node, bytes),
                    oracle.broadcast_all(node, bytes),
                ),
                (
                    "broadcast_quorum",
                    model.broadcast_quorum(node, bytes),
                    oracle.broadcast_quorum(node, bytes),
                ),
                (
                    "linear_phase",
                    model.linear_phase(node, bytes),
                    oracle.linear_phase(node, bytes),
                ),
                (
                    "hotstuff_commit",
                    model.hotstuff_commit(node, bytes),
                    oracle.hotstuff_commit(node, bytes),
                ),
                (
                    "ibft_commit",
                    model.ibft_commit(node, bytes),
                    oracle.ibft_commit(node, bytes),
                ),
                (
                    "gossip_all",
                    model.gossip_all(node, fanout, bytes),
                    oracle.gossip_all(node, fanout, bytes),
                ),
            ];
            for (query, got, want) in queries {
                prop_assert_eq!(got, want, "{query} differs from the oracle");
            }
            prop_assert_eq!(
                model.median_delay_from(node).to_bits(),
                oracle.median_delay_from(node).to_bits()
            );
            Ok(())
        },
    );
}
