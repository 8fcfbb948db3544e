//! Per-chain protocol parameters and calibration constants.
//!
//! Structural parameters (block periods, confirmation depths, gas
//! limits, mempool policies) come straight from the paper's §5.2 or the
//! chains' public documentation. Capacity constants (per-block
//! transaction caps, execution rates, overload-degradation factors) are
//! calibration knobs fitted so the end-to-end experiments reproduce the
//! paper's observed numbers; every fitted value is flagged `CALIBRATED`
//! and cross-referenced in EXPERIMENTS.md.

use diablo_net::{DeploymentConfig, MachineSpec};
use diablo_sim::SimDuration;

use crate::chain::Chain;
use crate::mempool::MempoolPolicy;

/// The consensus mechanism driving block production.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConsensusKind {
    /// Algorand BA★: sortition plus two committee vote phases over
    /// gossip; a fresh committee per round, no pipelining.
    AlgorandBa {
        /// Fixed per-round protocol time (sortition, seed, cert
        /// assembly) on top of gossip. CALIBRATED.
        round_base: SimDuration,
        /// Gossip overlay fanout.
        fanout: usize,
        /// Propagation budget already absorbed by the protocol's fixed
        /// λ timeouts: only gossip *beyond* this budget lengthens the
        /// round (why Algorand's round time barely improves on LAN).
        gossip_budget: SimDuration,
    },
    /// Avalanche: repeated metastable subsampling; block period
    /// throttled (§5.2: "seems to require a period between blocks of at
    /// least 1.9 seconds", and snowtrace shows ~1.2 s under load).
    AvalancheSnow {
        /// Number of sampling rounds to finalize a block.
        sample_rounds: u32,
        /// Block period when the pool is saturated. CALIBRATED.
        period_loaded: SimDuration,
        /// Block period when demand is light.
        period_idle: SimDuration,
    },
    /// Diem HotStuff: pipelined three-chain, rotating leaders, a
    /// pacemaker with exponential timeouts tuned for low-RTT networks.
    HotStuff {
        /// Minimum round interval (proposal pacing).
        min_round: SimDuration,
        /// Pacemaker round timeout; rounds whose quorum phase exceeds it
        /// trigger a view change. CALIBRATED (the mechanism behind §6.6:
        /// "high RTT networks" are not a Diem use case).
        pacemaker_base: SimDuration,
        /// Exponential backoff cap for consecutive view changes.
        pacemaker_cap: SimDuration,
    },
    /// Ethereum Clique proof-of-authority: in-turn sealers, a fixed
    /// minimum block period.
    Clique {
        /// The configured block period.
        period: SimDuration,
    },
    /// Quorum IBFT: pre-prepare plus two all-to-all phases; the next
    /// proposal waits for the previous commit (no pipelining).
    Ibft {
        /// Minimum block interval.
        min_period: SimDuration,
        /// Per-pending-transaction block-assembly cost — the pool scan
        /// that makes an unbounded queue fatal under sustained overload
        /// (§6.3). CALIBRATED.
        scan_per_tx: SimDuration,
    },
    /// Leaderless deterministic BFT (Red Belly's DBFT): every node
    /// proposes concurrently and the committed superblock is the union
    /// of a quorum of proposals — no leader egress bottleneck, no
    /// single-queue collapse.
    LeaderlessDbft {
        /// Minimum superblock interval.
        min_period: SimDuration,
        /// Transactions each node contributes per superblock.
        per_proposer: usize,
    },
    /// Solana: proof-of-history slots with TowerBFT votes.
    TowerBft {
        /// The PoH slot time (400 ms).
        slot: SimDuration,
        /// Fraction of slots skipped by absent/slow leaders.
        skip_rate: f64,
    },
}

/// Batched signature-verification cost model.
///
/// Real nodes do not verify block signatures one at a time: ed25519
/// chains batch-verify (half the scalar multiplications amortize across
/// the batch), Solana runs a dedicated SIMD/GPU sigverify stage, and
/// even ECDSA chains overlap recovery with block fetch across worker
/// threads. The per-block verification time is therefore a curve, not a
/// per-transaction constant:
///
/// ```text
/// cost(n)    = batch_fixed_us + n · per_tx_us / speedup(n)
/// speedup(n) = 1 + (max_speedup − 1) · n / (n + batch_knee)
/// ```
///
/// Singleton blocks pay the full single-signature price (`speedup(0+) →
/// 1`); large blocks approach `max_speedup` with half the gain reached
/// at `batch_knee` transactions. `per_tx_us` is the *per-core-pool*
/// cost: the constructors divide the single-signature latency by the
/// machine's vCPUs, modeling the verification thread pool every
/// production node runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigVerify {
    /// One-at-a-time verification cost per signature, µs (already
    /// divided across the node's verification threads).
    pub per_tx_us: f64,
    /// Fixed per-batch setup cost (dispatch, result aggregation), µs.
    pub batch_fixed_us: f64,
    /// Batch size reaching half the asymptotic batching gain.
    pub batch_knee: f64,
    /// Asymptotic speedup of batch verification over one-at-a-time.
    pub max_speedup: f64,
}

/// Single-core ed25519 verification latency, µs. CALIBRATED (donna-style
/// implementations verify in 50–70 µs on c5-class cores).
const ED25519_SINGLE_US: f64 = 55.0;

/// Single-core secp256k1 ECDSA pubkey-recovery latency, µs. CALIBRATED
/// (libsecp256k1 recovery on c5-class cores).
const SECP256K1_SINGLE_US: f64 = 85.0;

impl SigVerify {
    /// A model that charges nothing (ablations, micro-benches).
    pub const DISABLED: SigVerify = SigVerify {
        per_tx_us: 0.0,
        batch_fixed_us: 0.0,
        batch_knee: 1.0,
        max_speedup: 1.0,
    };

    /// Ed25519 with CPU batch verification, spread over `vcpus`
    /// verification threads (Algorand, Diem).
    pub fn ed25519(vcpus: u32) -> SigVerify {
        SigVerify {
            per_tx_us: ED25519_SINGLE_US / vcpus.max(1) as f64,
            batch_fixed_us: 30.0,
            batch_knee: 128.0,
            max_speedup: 2.0,
        }
    }

    /// Ed25519 through a dedicated SIMD/GPU sigverify stage (Solana).
    pub fn ed25519_staged(vcpus: u32) -> SigVerify {
        SigVerify {
            per_tx_us: ED25519_SINGLE_US / vcpus.max(1) as f64,
            batch_fixed_us: 60.0,
            batch_knee: 256.0,
            max_speedup: 4.0,
        }
    }

    /// Secp256k1 ECDSA recovery over a worker pool; no batch algorithm
    /// exists, the modest gain is fetch/verify overlap (geth-family:
    /// Ethereum, Quorum, Avalanche; Red Belly's parallel verifier).
    pub fn secp256k1(vcpus: u32) -> SigVerify {
        SigVerify {
            per_tx_us: SECP256K1_SINGLE_US / vcpus.max(1) as f64,
            batch_fixed_us: 20.0,
            batch_knee: 64.0,
            max_speedup: 1.3,
        }
    }

    /// The effective batching speedup at batch size `n`.
    pub fn speedup(&self, n: usize) -> f64 {
        let n = n as f64;
        1.0 + (self.max_speedup - 1.0) * n / (n + self.batch_knee.max(1e-9))
    }

    /// Verification time of a block carrying `n` signatures.
    pub fn batch_cost(&self, n: usize) -> SimDuration {
        if n == 0 || self.per_tx_us <= 0.0 {
            return SimDuration::ZERO;
        }
        let us = self.batch_fixed_us + n as f64 * self.per_tx_us / self.speedup(n);
        SimDuration::from_secs_f64(us / 1e6)
    }
}

/// Everything the simulator needs to run one chain on one deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainParams {
    /// Which chain these parameters model.
    pub chain: Chain,
    /// Consensus mechanism and timing.
    pub consensus: ConsensusKind,
    /// Mempool admission policy.
    pub mempool: MempoolPolicy,
    /// London fee-market headroom clients sign with; `None` disables the
    /// fee market (Quorum has no London, §5.2).
    pub fee_headroom: Option<f64>,
    /// Gas per block.
    pub block_gas_limit: u64,
    /// Transactions per block. CALIBRATED per chain.
    pub block_tx_limit: usize,
    /// Block payload bytes.
    pub block_bytes_limit: u64,
    /// Extra appended blocks before a transaction counts as final
    /// (Solana: 30, §5.2).
    pub confirmations: u32,
    /// Pool residency limit after which a transaction's recent
    /// blockhash expires (Solana: 120 s, §5.2).
    pub blockhash_expiry: Option<SimDuration>,
    /// Service degradation under admission overload: effective block
    /// capacity is multiplied by `1 / (1 + d · fill²)` where `fill` is
    /// the pool occupancy ratio. CALIBRATED against Figure 4.
    pub overload_degradation: f64,
    /// Contract-execution rate in VM ops per second on the deployment's
    /// machines. CALIBRATED.
    pub exec_ops_per_sec: f64,
    /// Number of distinct sender accounts the workload signs from
    /// (2,000 normally; 130 for Diem on community/consortium, §5.2).
    pub accounts: u32,
    /// Client-side commit-detection delay (websocket push or block
    /// polling cadence, §4).
    pub detection_delay: SimDuration,
    /// Transaction-admission rate (signature checks, mempool quorum
    /// acks) beyond which service degrades. CALIBRATED against Fig. 4.
    pub admission_rate: f64,
    /// Whether dropped transactions leave nonce gaps that stall the
    /// sender's later transactions (geth account nonces — the mechanism
    /// behind Ethereum's 0.09 % commits at 10,000 TPS, §6.3).
    pub nonce_gaps: bool,
    /// Sustained per-node egress bandwidth available for block
    /// broadcast, in Mbps (the leader-egress bound that caps IBFT at
    /// ~500 TPS on 200 WAN nodes, §6.2).
    pub egress_mbps: f64,
    /// Admission-cost multiplier for DApp invocations relative to
    /// native transfers (smart-contract calls are prevalidated /
    /// speculatively executed on Algorand, Diem and Solana, so a call
    /// storm overloads admission much faster than a transfer storm).
    /// CALIBRATED against Figure 2.
    pub invoke_weight: f64,
    /// Hard per-block cap on DApp invocations (Solana's banking stage
    /// serializes writes to a hot contract account). `None` = only gas
    /// limits apply.
    pub invoke_tx_per_block: Option<usize>,
    /// Batched signature-verification cost curve applied per block.
    pub sig_verify: SigVerify,
}

/// Per-core execution rate for natively-optimized geth contract code
/// (VM ops per second). CALIBRATED.
const GETH_OPS_PER_CORE: f64 = 70_000_000.0;

impl ChainParams {
    /// Standard parameters for `chain` on `config` — the defaults used
    /// by every paper experiment.
    pub fn standard(chain: Chain, config: &DeploymentConfig) -> Self {
        let machine = config.machine();
        let local = config.is_local();
        let big_net = config.node_count() >= 100;
        match chain {
            Chain::Algorand => ChainParams {
                chain,
                consensus: ConsensusKind::AlgorandBa {
                    round_base: SimDuration::from_millis(3_350),
                    fanout: 8,
                    gossip_budget: SimDuration::from_millis(1_500),
                },
                mempool: MempoolPolicy::bounded(7_000),
                fee_headroom: None,
                block_gas_limit: u64::MAX,
                block_tx_limit: 3_650,
                block_bytes_limit: 5 * 1024 * 1024,
                confirmations: 0,
                blockhash_expiry: None,
                overload_degradation: 0.083,
                exec_ops_per_sec: exec_rate(machine, 1.0),
                accounts: 2_000,
                // Diablo polls every appended block for Algorand (§5.2).
                detection_delay: SimDuration::from_millis(500),
                admission_rate: 3_000.0,
                nonce_gaps: false,
                egress_mbps: egress(local, machine),
                invoke_weight: 8.0,
                invoke_tx_per_block: None,
                sig_verify: SigVerify::ed25519(machine.vcpus()),
            },
            Chain::Avalanche => ChainParams {
                chain,
                consensus: ConsensusKind::AvalancheSnow {
                    sample_rounds: 12,
                    period_loaded: SimDuration::from_millis(1_180),
                    period_idle: SimDuration::from_millis(2_200),
                },
                mempool: MempoolPolicy::bounded(30_000),
                // Clients re-sign with generous caps as the fee moves
                // (§5.2: the gas fee is computed dynamically).
                fee_headroom: Some(240.0),
                block_gas_limit: 8_000_000,
                block_tx_limit: 4_000,
                block_bytes_limit: 2 * 1024 * 1024,
                confirmations: 0,
                blockhash_expiry: None,
                overload_degradation: 0.0,
                exec_ops_per_sec: exec_rate(machine, 1.0),
                accounts: 2_000,
                detection_delay: SimDuration::from_millis(200),
                admission_rate: f64::INFINITY,
                nonce_gaps: false,
                egress_mbps: egress(local, machine),
                invoke_weight: 1.0,
                invoke_tx_per_block: None,
                sig_verify: SigVerify::secp256k1(machine.vcpus()),
            },
            Chain::Diem => ChainParams {
                chain,
                consensus: ConsensusKind::HotStuff {
                    min_round: SimDuration::from_millis(120),
                    pacemaker_base: SimDuration::from_millis(100),
                    pacemaker_cap: SimDuration::from_millis(4_000),
                },
                mempool: MempoolPolicy {
                    capacity: Some(7_000),
                    per_sender: Some(100),
                },
                fee_headroom: None,
                block_gas_limit: u64::MAX,
                block_tx_limit: 250,
                block_bytes_limit: 1024 * 1024,
                confirmations: 0,
                blockhash_expiry: None,
                overload_degradation: 3.6,
                exec_ops_per_sec: exec_rate(machine, 0.8),
                // §5.2: the setup tools fail past 130 accounts, which the
                // paper hit in the community and consortium deployments.
                accounts: if big_net { 130 } else { 2_000 },
                detection_delay: SimDuration::from_millis(100),
                admission_rate: 3_000.0,
                nonce_gaps: false,
                egress_mbps: egress(local, machine),
                invoke_weight: 1.5,
                invoke_tx_per_block: None,
                sig_verify: SigVerify::ed25519(machine.vcpus()),
            },
            Chain::Ethereum => ChainParams {
                chain,
                consensus: ConsensusKind::Clique {
                    period: SimDuration::from_secs(15),
                },
                mempool: MempoolPolicy::bounded(120_000),
                fee_headroom: Some(2.0),
                block_gas_limit: 8_000_000,
                block_tx_limit: 2_000,
                block_bytes_limit: 2 * 1024 * 1024,
                confirmations: 1,
                blockhash_expiry: None,
                overload_degradation: 0.0,
                exec_ops_per_sec: exec_rate(machine, 1.0),
                accounts: 2_000,
                detection_delay: SimDuration::from_millis(200),
                admission_rate: f64::INFINITY,
                nonce_gaps: true,
                egress_mbps: egress(local, machine),
                invoke_weight: 1.0,
                invoke_tx_per_block: None,
                sig_verify: SigVerify::secp256k1(machine.vcpus()),
            },
            Chain::Quorum => ChainParams {
                chain,
                consensus: ConsensusKind::Ibft {
                    min_period: SimDuration::from_millis(1_000),
                    scan_per_tx: SimDuration::from_micros(20),
                },
                mempool: MempoolPolicy::UNBOUNDED,
                fee_headroom: None,
                // Quorum genesis files commonly ship a 0xE0000000 gas
                // limit; nothing but the pool caps light transactions.
                block_gas_limit: 0xE000_0000,
                block_tx_limit: 3_000,
                block_bytes_limit: 4 * 1024 * 1024,
                confirmations: 0,
                blockhash_expiry: None,
                overload_degradation: 0.0,
                // Quorum "benefits from many blockchain specific
                // optimizations by using geth as a base code" (§6.2);
                // its execution factor is fitted to the Fig. 5 Uber run.
                exec_ops_per_sec: exec_rate(machine, 12.5),
                accounts: 2_000,
                detection_delay: SimDuration::from_millis(100),
                admission_rate: f64::INFINITY,
                nonce_gaps: false,
                egress_mbps: egress(local, machine),
                invoke_weight: 1.0,
                invoke_tx_per_block: None,
                sig_verify: SigVerify::secp256k1(machine.vcpus()),
            },
            Chain::RedBelly => ChainParams {
                chain,
                consensus: ConsensusKind::LeaderlessDbft {
                    min_period: SimDuration::from_millis(1_000),
                    per_proposer: 150,
                },
                // DBFT was designed to never drop a client request and,
                // being leaderless, has no single queue to saturate.
                mempool: MempoolPolicy::UNBOUNDED,
                fee_headroom: None,
                block_gas_limit: 0xE000_0000,
                block_tx_limit: 150 * config.node_count().max(1),
                block_bytes_limit: 16 * 1024 * 1024,
                confirmations: 0,
                blockhash_expiry: None,
                overload_degradation: 0.0,
                exec_ops_per_sec: exec_rate(machine, 8.0),
                accounts: 2_000,
                detection_delay: SimDuration::from_millis(100),
                admission_rate: f64::INFINITY,
                nonce_gaps: false,
                egress_mbps: egress(local, machine),
                invoke_weight: 1.0,
                invoke_tx_per_block: None,
                sig_verify: SigVerify::secp256k1(machine.vcpus()),
            },
            Chain::Solana => ChainParams {
                chain,
                consensus: ConsensusKind::TowerBft {
                    slot: SimDuration::from_millis(400),
                    skip_rate: 0.05,
                },
                mempool: MempoolPolicy::bounded(450 * machine.vcpus() as usize),
                fee_headroom: None,
                block_gas_limit: 48_000_000,
                // Banking-stage throughput scales with cores. CALIBRATED
                // to the paper's 8,845 TPS datacenter peak.
                block_tx_limit: 110 * machine.vcpus() as usize,
                block_bytes_limit: 4 * 1024 * 1024,
                confirmations: 30,
                blockhash_expiry: Some(SimDuration::from_secs(120)),
                overload_degradation: 0.42,
                exec_ops_per_sec: exec_rate(machine, machine.vcpus() as f64 / 2.0),
                accounts: 2_000,
                detection_delay: SimDuration::from_millis(100),
                admission_rate: 1_000.0 * machine.vcpus() as f64,
                nonce_gaps: false,
                egress_mbps: egress(local, machine),
                invoke_weight: 2.0,
                invoke_tx_per_block: Some(65),
                sig_verify: SigVerify::ed25519_staged(machine.vcpus()),
            },
        }
    }
}

/// Execution rate for a machine: serial geth-style execution scaled by a
/// per-chain engine factor (Solana's Sealevel runs across cores).
fn exec_rate(machine: MachineSpec, factor: f64) -> f64 {
    GETH_OPS_PER_CORE * factor * (machine.vcpus() as f64 / 8.0).clamp(0.5, 4.5)
}

/// Sustained block-broadcast egress per node: intra-datacenter wiring
/// versus cross-region WAN flows (Table 3 bandwidths sit in the
/// 100–400 Mbps band; sustained egress scales with the instance size).
fn egress(local: bool, machine: MachineSpec) -> f64 {
    if local {
        5_000.0
    } else {
        40.0 * machine.vcpus() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_net::DeploymentKind;

    fn cfg(kind: DeploymentKind) -> DeploymentConfig {
        DeploymentConfig::standard(kind)
    }

    #[test]
    fn quorum_never_drops_and_has_no_london() {
        let p = ChainParams::standard(Chain::Quorum, &cfg(DeploymentKind::Consortium));
        assert!(p.mempool.capacity.is_none());
        assert!(p.fee_headroom.is_none());
        assert!(matches!(p.consensus, ConsensusKind::Ibft { .. }));
    }

    #[test]
    fn diem_per_sender_cap_and_account_limit() {
        let small = ChainParams::standard(Chain::Diem, &cfg(DeploymentKind::Testnet));
        assert_eq!(small.mempool.per_sender, Some(100));
        assert_eq!(small.accounts, 2_000);
        // §5.2: only 130 accounts on the 200-node deployments.
        let big = ChainParams::standard(Chain::Diem, &cfg(DeploymentKind::Consortium));
        assert_eq!(big.accounts, 130);
    }

    #[test]
    fn solana_confirmations_and_expiry() {
        let p = ChainParams::standard(Chain::Solana, &cfg(DeploymentKind::Datacenter));
        assert_eq!(p.confirmations, 30);
        assert_eq!(p.blockhash_expiry, Some(SimDuration::from_secs(120)));
        match p.consensus {
            ConsensusKind::TowerBft { slot, .. } => assert_eq!(slot.as_millis(), 400),
            other => panic!("wrong consensus {other:?}"),
        }
    }

    #[test]
    fn solana_capacity_scales_with_machine() {
        let dc = ChainParams::standard(Chain::Solana, &cfg(DeploymentKind::Datacenter));
        let tn = ChainParams::standard(Chain::Solana, &cfg(DeploymentKind::Testnet));
        assert_eq!(dc.block_tx_limit, 110 * 36);
        assert_eq!(tn.block_tx_limit, 110 * 4);
    }

    #[test]
    fn london_only_on_ethereum_and_avalanche() {
        for chain in Chain::ALL {
            let p = ChainParams::standard(chain, &cfg(DeploymentKind::Devnet));
            let has_london = p.fee_headroom.is_some();
            assert_eq!(
                has_london,
                matches!(chain, Chain::Ethereum | Chain::Avalanche),
                "{chain}"
            );
        }
    }

    #[test]
    fn avalanche_block_limits_match_paper() {
        let p = ChainParams::standard(Chain::Avalanche, &cfg(DeploymentKind::Datacenter));
        assert_eq!(p.block_gas_limit, 8_000_000, "§5.2: 8M gas per block");
        match p.consensus {
            ConsensusKind::AvalancheSnow {
                period_loaded,
                period_idle,
                ..
            } => {
                assert!(period_loaded >= SimDuration::from_millis(1_100));
                assert!(period_idle > period_loaded);
            }
            other => panic!("wrong consensus {other:?}"),
        }
    }

    #[test]
    fn leader_based_classification_matches_chain() {
        for chain in Chain::ALL {
            let p = ChainParams::standard(chain, &cfg(DeploymentKind::Devnet));
            let leader_based = matches!(
                p.consensus,
                ConsensusKind::HotStuff { .. } | ConsensusKind::Ibft { .. }
            );
            assert_eq!(leader_based, chain.is_leader_based_bft(), "{chain}");
        }
    }
}
