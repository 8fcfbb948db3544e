//! The runs every ledger row draws from, each executed at most once.
//!
//! A [`Key`] names one experiment the way the paper does — chain,
//! deployment, what is submitted, what departs from the standard
//! parameters — and the [`Cache`] keeps what tables and predicates read
//! of its result. It keeps a [`Run`], not the `RunResult`: Figure 2's
//! YouTube and Dota columns alone are 57 million 32-byte records, and
//! nothing printed here needs one once the run is over.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use diablo_chains::tx::CallSel;
use diablo_chains::{Chain, ChainParams, ConsensusKind, Experiment, FaultPlan, MempoolPolicy};
use diablo_chains::{RunResult, Tally, TxStatus};
use diablo_contracts::{calls, exchange::Stock, DApp};
use diablo_net::{DeploymentConfig, DeploymentKind};
use diablo_sim::{SimDuration, SimTime};
use diablo_workloads::{traces, Workload};

/// The four configurations of the scalability experiment (§6.2), in
/// increasing order of decentralization.
pub const CONFIGS: [DeploymentKind; 4] = {
    use DeploymentKind::*;
    [Datacenter, Testnet, Devnet, Community]
};

/// What is submitted: the rate curve and the DApp call it drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Load {
    /// Native transfers at a constant rate (TPS) for 120 s.
    Native(u32),
    /// A DApp under its own real trace (Table 2).
    Trace(DApp),
    /// One NASDAQ stock's burst through the Exchange DApp, every
    /// transaction buying that stock (Figure 6).
    Burst(Stock),
}

impl Load {
    /// The rate curve of this load.
    pub fn workload(self) -> Workload {
        match self {
            Load::Native(tps) => traces::constant(f64::from(tps), 120),
            Load::Trace(dapp) => traces::for_dapp(dapp.name()).expect("every dapp has a trace"),
            Load::Burst(Stock::Google) => traces::google(),
            Load::Burst(Stock::Apple) => traces::apple(),
            Load::Burst(Stock::Facebook) => traces::facebook(),
            Load::Burst(Stock::Amazon) => traces::amazon(),
            Load::Burst(Stock::Microsoft) => traces::microsoft(),
        }
    }
}

/// What departs from the chain's standard parameters: the ablations of
/// §6.6's conjectures and the faults injected at t = 60 s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The paper's setup.
    Standard,
    /// Quorum's never-drop pool bounded at 7,000 (geth's default size).
    BoundedPool,
    /// Solana at 1 confirmation instead of 30.
    OneConfirmation,
    /// Diem signing from 20 accounts instead of 2,000, with or without
    /// the 100-transaction per-sender cap.
    FewSigners { capped: bool },
    /// Avalanche with a 400 ms block period, loaded or idle.
    Unthrottled,
    /// `f` nodes (or `f + 1`) crash at t = 60 s.
    Crash { beyond_f: bool },
    /// Every link is 4x slower from t = 60 s.
    Slowdown,
}

/// One experiment of the evaluation: the chain under test, where it is
/// deployed, what is submitted, what departs from the standard setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    pub chain: Chain,
    pub deployment: DeploymentKind,
    pub load: Load,
    pub variant: Variant,
}

impl Key {
    /// The experiment this key names.
    pub fn experiment(self) -> Experiment {
        let mut e = Experiment::new(self.chain, self.deployment, self.load.workload());
        match self.load {
            Load::Native(_) => {}
            Load::Trace(dapp) => e.dapp = Some(dapp),
            Load::Burst(stock) => {
                let entry = calls::entry_index(DApp::Exchange, stock.entry()).expect("known entry");
                e.dapp = Some(DApp::Exchange);
                e.call = Some(CallSel { entry, args: [0, 0], argc: 0 });
            }
        }
        let config = DeploymentConfig::standard(self.deployment);
        let mut params = ChainParams::standard(self.chain, &config);
        let (faults, at) = (FaultPlan::builder(), SimTime::from_secs(60));
        match self.variant {
            Variant::Standard => return e,
            Variant::Crash { beyond_f } => {
                let nodes = config.byzantine_f() + usize::from(beyond_f);
                return e.with_faults(faults.crash(0..nodes, at, None).build());
            }
            Variant::Slowdown => return e.with_faults(faults.slowdown(at, 4.0).build()),
            Variant::BoundedPool => params.mempool = MempoolPolicy::bounded(7_000),
            Variant::OneConfirmation => params.confirmations = 1,
            Variant::FewSigners { capped } => {
                params.accounts = 20;
                params.mempool.per_sender = params.mempool.per_sender.filter(|_| capped);
            }
            Variant::Unthrottled => {
                use ConsensusKind::AvalancheSnow;
                if let AvalancheSnow { period_loaded, period_idle, .. } = &mut params.consensus {
                    *period_loaded = SimDuration::from_millis(400);
                    *period_idle = *period_loaded;
                }
            }
        }
        e.with_params(params)
    }
}

/// What the tables and predicates read of one finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Which chain ran.
    pub chain: Chain,
    /// Why the chain could not run the DApp at all (Figure 5's X marks).
    pub unable: Option<String>,
    /// Transactions submitted, and those of them the per-sender cap
    /// refused (Diem, §5.2).
    pub submitted: u64,
    pub refused_per_sender: u64,
    /// Commits per second of the submission window, and of its second
    /// half alone (after the fault instant of a faulty run).
    pub tput: f64,
    pub tail_tput: f64,
    /// Average commit latency, seconds; and every one, ascending.
    pub latency: f64,
    pub latencies: Vec<f64>,
    /// Blocks produced (empty ones included), the mean interval between
    /// them in seconds, and the mean transactions per non-empty one.
    pub blocks: usize,
    pub block_interval: f64,
    pub block_fill: f64,
}

impl Run {
    /// Keeps what is read of `result`.
    pub fn of(result: &RunResult) -> Run {
        let tally = Tally::new(result);
        let latencies = result.records.iter().filter_map(|r| r.latency_secs());
        let mut latencies: Vec<f64> = latencies.collect();
        latencies.sort_by(f64::total_cmp);
        let (commits, half) = (result.commit_series(), result.workload_secs as usize / 2);
        let tail: u64 = (half..2 * half).map(|sec| commits.get(sec)).sum();
        Run {
            chain: result.chain,
            unable: result.unable_reason.clone(),
            submitted: tally.sent(),
            refused_per_sender: tally.count(TxStatus::DroppedPerSender),
            tput: tally.avg_throughput(),
            tail_tput: tail as f64 / half.max(1) as f64,
            latency: tally.latency_avg_secs(),
            latencies,
            blocks: result.blocks.len(),
            block_interval: result.mean_block_interval_secs(),
            block_fill: result.mean_block_fill(),
        }
    }

    /// Proportion of submitted transactions that committed.
    pub fn commit(&self) -> f64 {
        self.within(f64::INFINITY)
    }

    /// Proportion of *submitted* transactions committed within `secs`,
    /// so that dropped transactions show as a plateau below 1.
    pub fn within(&self, secs: f64) -> f64 {
        let n = self.latencies.partition_point(|&l| l <= secs);
        n as f64 / self.submitted.max(1) as f64
    }

    /// The longest commit latency, seconds.
    pub fn max_latency(&self) -> f64 {
        self.latencies.last().copied().unwrap_or(0.0)
    }
}

impl fmt::Display for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Run { chain, tput, latency, .. } = self;
        match &self.unable {
            Some(reason) => write!(f, "{chain}: unable ({reason})"),
            None => {
                let commit = self.commit() * 100.0;
                write!(f, "{chain}: {tput:.1} TPS, {latency:.1} s, {commit:.1}% committed")
            }
        }
    }
}

/// One run of the cache: `claimed` once a thread has set out to execute
/// it, `run` once it has.
#[derive(Default)]
struct Slot {
    claimed: AtomicBool,
    run: OnceLock<Arc<Run>>,
}

/// Memoises [`Key`] → [`Run`]; shared between test threads.
#[derive(Default)]
pub struct Cache(Mutex<HashMap<Key, Arc<Slot>>>);

impl Cache {
    /// The runs `keys` name, executed on first request. Runs another
    /// thread has in flight are waited for last, so two askers of the
    /// same six runs execute three each instead of one queueing behind
    /// the other run after run.
    pub fn get_all<const N: usize>(&self, keys: [Key; N]) -> [Arc<Run>; N] {
        let slots: [(Key, Arc<Slot>); N] = {
            let mut slots = self.0.lock().expect("no panic under the lock");
            keys.map(|key| (key, Arc::clone(slots.entry(key).or_default())))
        };
        let execute = |key: Key| Arc::new(Run::of(&key.experiment().run()));
        for (key, slot) in &slots {
            if !slot.claimed.swap(true, Ordering::Relaxed) {
                slot.run.get_or_init(|| execute(*key));
            }
        }
        slots.map(|(key, slot)| Arc::clone(slot.run.get_or_init(|| execute(key))))
    }

    /// The run `key` names.
    pub fn get(&self, key: Key) -> Arc<Run> {
        let [run] = self.get_all([key]);
        run
    }

    /// Native transfers at `tps` on the standard parameters.
    pub fn native(&self, chain: Chain, deployment: DeploymentKind, tps: u32) -> Arc<Run> {
        self.get(Key { chain, deployment, load: Load::Native(tps), variant: Variant::Standard })
    }

    /// A DApp under its trace on the consortium configuration (§6.1),
    /// one run per chain of the paper.
    pub fn dapp(&self, dapp: DApp) -> [Arc<Run>; 6] {
        self.get_all(Chain::ALL.map(|chain| consortium(chain, Load::Trace(dapp))))
    }

    /// One stock's burst on the consortium configuration (§6.5).
    pub fn burst(&self, chain: Chain, stock: Stock) -> Arc<Run> {
        self.get(consortium(chain, Load::Burst(stock)))
    }
}

/// `load` on the consortium configuration, standard parameters.
pub fn consortium(chain: Chain, load: Load) -> Key {
    Key { chain, deployment: DeploymentKind::Consortium, load, variant: Variant::Standard }
}
