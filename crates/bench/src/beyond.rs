//! Beyond the paper (DESIGN.md §6): the ablations of §6.6's conjectures,
//! fault injection, the block-explorer view and the leaderless contrast
//! chain.

use std::fmt::Write as _;
use std::sync::Arc;

use diablo_chains::Chain;
use diablo_contracts::{exchange::Stock, DApp};
use diablo_net::{DeploymentConfig, DeploymentKind};

use crate::cache::{consortium, Cache, Key, Load, Run, Variant};
use crate::ledger::Check::Test;
use crate::ledger::{ensure, shape, Check, Claim, Outcome, Row};
use crate::perf_table;

const BEHAVIOR: &str = "crates/chains/tests/consensus_behavior.rs";
const FAULTS: &str = "tests/fault_injection.rs";
const REDBELLY: &str = "tests/extension_redbelly.rs";

/// The beyond-paper tables.
#[rustfmt::skip]
pub const ROWS: &[Row] = &[
    Row { id: "ablations", section: "§6.6", body: ablations,
        title: "Design-choice ablations: one mechanism flipped at a time",
        claims: &[
        shape!("bounding Quorum's pool rescues it at 10,000 TPS and forfeits the 100 % burst \
                commits: the robustness/availability trade-off",
            ablation_bounded_pool_inverts_both_quorum_results),
        shape!("Solana's sub-second-ish latency exists at 1 confirmation; the advised 30 cost 12 s",
            ablation_confirmations_are_solanas_latency),
        shape!("with 20 signers Diem's per-sender cap refuses most of the load at admission, which \
                is why the paper signs from 2,000 accounts",
            ablation_diems_cap_refuses_a_few_signers_load),
        shape!("the block-period floor, not the sampling protocol, caps Avalanche (§6.2)",
            ablation_avalanche_is_throttled_by_its_period),
    ] },
    Row { id: "faults", section: "§7", body: faults,
        title: "Fault injection on devnet: 500 TPS, fault at t = 60 s",
        claims: &[
        shape!("the chains that need a quorum survive f crashes and halt at f + 1",
            faults_quorums_survive_f_crashes_and_halt_past_them),
        Claim("the eventually consistent chains keep committing past f crashes",
            Test(FAULTS, "eventual_chains_keep_committing_past_f_crashes")),
        Claim("a slower network raises latency", Test(FAULTS, "network_slowdown_raises_latency")),
    ] },
    Row { id: "blocktimes", section: "§5.2", body: blocktimes,
        title: "Observed block production under a saturating 5,000 TPS (testnet, 120 s)",
        claims: &[
        Claim("Solana 0.4 s slots, Avalanche ~1.18 s, Ethereum 15 s Clique periods, Algorand ~4 s \
               BA rounds, Diem sub-second pipelined rounds, RedBelly >= 1 s",
            Test(BEHAVIOR, "observed_block_intervals_match_protocol_timing")),
        Claim("Quorum's interval is its backlog, not its 1 s minimum period",
            Test(BEHAVIOR, "quorum_block_interval_grows_with_backlog")),
    ] },
    Row { id: "redbelly", section: "§6.1, §6.3", body: redbelly,
        title: "Extension: leaderless DBFT (Red Belly) vs the leader-based BFT chains",
        claims: &[
        Claim("Red Belly commits the whole NASDAQ workload on consortium, as [40] reports",
            Test(REDBELLY, "redbelly_commits_the_whole_nasdaq_workload_on_consortium")),
        Claim("no leader queue to saturate: it keeps its throughput at 10,000 TPS while Diem \
               divides by ~10 and Quorum collapses",
            Test(REDBELLY, "redbelly_is_immune_to_sustained_overload")),
    ] },
];

/// One experiment under the paper's setup and under its ablated twin:
/// title, the experiment, and the two variants with their labels.
type Ablation = (&'static str, Chain, DeploymentKind, Load, [(&'static str, Variant); 2]);

#[rustfmt::skip]
const AT_10K: Ablation =
    ("1a. Quorum with a bounded (geth-default-sized) pool under a sustained 10,000 TPS",
        Chain::Quorum, DeploymentKind::Testnet, Load::Native(10_000),
        [("never-drop (paper)", Variant::Standard), ("bounded pool", Variant::BoundedPool)]);
#[rustfmt::skip]
const ON_APPLE: Ablation =
    ("1b. the same under the Apple burst on consortium",
        Chain::Quorum, DeploymentKind::Consortium, Load::Burst(Stock::Apple), AT_10K.4);
#[rustfmt::skip]
const CONFIRMATIONS: Ablation =
    ("2. Solana at 1 confirmation instead of 30",
        Chain::Solana, DeploymentKind::Testnet, Load::Native(1_000),
        [("30 confirmations (paper)", Variant::Standard),
         ("1 confirmation", Variant::OneConfirmation)]);
#[rustfmt::skip]
const FEW_SIGNERS: Ablation =
    ("3. Diem's 100-transaction per-sender cap with 20 signers instead of 2,000",
        Chain::Diem, DeploymentKind::Consortium, Load::Native(1_000),
        [("per-sender cap (paper)", Variant::FewSigners { capped: true }),
         ("no per-sender cap", Variant::FewSigners { capped: false })]);
#[rustfmt::skip]
const UNTHROTTLED: Ablation =
    ("4. Avalanche without the block-period throttle",
        Chain::Avalanche, DeploymentKind::Community, Load::Native(1_000),
        [(">=1.18 s period (paper)", Variant::Standard), ("400 ms period", Variant::Unthrottled)]);

/// The paper's run of `ablation` and the ablated one.
fn runs(c: &Cache, &(_, chain, deployment, load, variants): &Ablation) -> [Arc<Run>; 2] {
    variants.map(|(_, variant)| c.get(Key { chain, deployment, load, variant }))
}

fn ablations(c: &Cache, out: &mut String) {
    for ablation in [AT_10K, ON_APPLE, CONFIRMATIONS, FEW_SIGNERS, UNTHROTTLED] {
        let (title, .., variants) = ablation;
        let _ = writeln!(out, "== {title} ==");
        let runs = runs(c, &ablation);
        let refused = runs.each_ref().map(|r| r.refused_per_sender);
        let rows = [0, 1].map(|i| (variants[i].0.to_string(), Arc::clone(&runs[i])));
        perf_table(out, "", None, &rows);
        if refused != [0, 0] {
            let _ = writeln!(out, "refused at admission by the per-sender cap: {refused:?}");
        }
        out.push('\n');
    }
}

fn ablation_bounded_pool_inverts_both_quorum_results(c: &Cache) -> Outcome {
    let [paper, bounded] = runs(c, &AT_10K);
    ensure!(bounded.tput > 5.0 * paper.tput, "at 10,000 TPS: {paper}, bounded {bounded}");
    let [paper, bounded] = runs(c, &ON_APPLE);
    ensure!(paper.commit() > 0.999 && bounded.commit() < 0.90, "Apple: {paper}, bounded {bounded}");
    Ok(())
}

fn ablation_confirmations_are_solanas_latency(c: &Cache) -> Outcome {
    let [paper, one] = runs(c, &CONFIRMATIONS);
    ensure!(paper.latency >= 12.0, "30 x 400 ms: {paper}");
    ensure!(one.latency < 3.0 && one.tput >= paper.tput, "{one}");
    Ok(())
}

fn ablation_diems_cap_refuses_a_few_signers_load(c: &Cache) -> Outcome {
    let [capped, uncapped] = runs(c, &FEW_SIGNERS);
    let refused = capped.refused_per_sender;
    ensure!(2 * refused > capped.submitted, "{refused} of {} refused", capped.submitted);
    ensure!(uncapped.refused_per_sender == 0, "{} refused", uncapped.refused_per_sender);
    Ok(())
}

fn ablation_avalanche_is_throttled_by_its_period(c: &Cache) -> Outcome {
    let [paper, unthrottled] = runs(c, &UNTHROTTLED);
    ensure!(unthrottled.tput > 2.0 * paper.tput, "{paper}, unthrottled {unthrottled}");
    Ok(())
}

/// Commits per second after the fault instant, for: no fault, `f`
/// crashes, `f + 1` crashes, a 4x slowdown.
fn tails(c: &Cache, chain: Chain) -> [f64; 4] {
    let crash = |beyond_f| Variant::Crash { beyond_f };
    let (deployment, load) = (DeploymentKind::Devnet, Load::Native(500));
    [Variant::Standard, crash(false), crash(true), Variant::Slowdown]
        .map(|variant| c.get(Key { chain, deployment, load, variant }).tail_tput)
}

fn faults(c: &Cache, out: &mut String) {
    let cfg = DeploymentConfig::standard(DeploymentKind::Devnet);
    let (n, f) = (cfg.node_count(), cfg.byzantine_f());
    let _ = writeln!(out, "n = {n}, f = {f}; commits per second after the fault instant\n");
    out.push_str("chain          no fault      crash f    crash f+1  4x slowdown\n");
    for chain in Chain::ALL {
        let _ = write!(out, "{:<10}", chain.name());
        for tail in tails(c, chain) {
            let _ = write!(out, " {tail:>8.1} TPS");
        }
        out.push('\n');
    }
}

fn faults_quorums_survive_f_crashes_and_halt_past_them(c: &Cache) -> Outcome {
    for chain in [Chain::Algorand, Chain::Diem, Chain::Quorum] {
        let [healthy, f, beyond, _] = tails(c, chain);
        ensure!(f > 0.6 * healthy, "{chain}: {f:.1} TPS after f crashes, {healthy:.1} without");
        ensure!(beyond < 0.1 * healthy, "{chain}: {beyond:.1} TPS after f + 1 crashes");
    }
    Ok(())
}

fn blocktimes(c: &Cache, out: &mut String) {
    out.push_str("chain          blocks     interval    mean fill   tput TPS\n");
    for chain in Chain::EXTENDED {
        let r = c.native(chain, DeploymentKind::Testnet, 5_000);
        let (name, blocks, interval) = (chain.name(), r.blocks, r.block_interval);
        let _ = write!(out, "{name:<10} {blocks:>10} {interval:>11.2}s");
        let _ = writeln!(out, " {:>12.1} {:>10.1}", r.block_fill, r.tput);
    }
}

fn redbelly(c: &Cache, out: &mut String) {
    let chains = [Chain::Quorum, Chain::Diem, Chain::RedBelly];
    out.push_str("== NASDAQ Exchange DApp on consortium (§6.1's contrast) ==\n");
    let exchange = |chain: Chain| c.get(consortium(chain, Load::Trace(DApp::Exchange)));
    let rows = chains.map(|chain| (chain.name().to_string(), exchange(chain)));
    perf_table(out, "chain", None, &rows);
    out.push_str("\n== 1,000 vs a sustained 10,000 TPS on testnet (§6.3's contrast) ==\n");
    let mut rows = Vec::new();
    for chain in chains {
        for tps in [1_000, 10_000] {
            let label = format!("{:<10} {tps:>6} TPS", chain.name());
            rows.push((label, c.native(chain, DeploymentKind::Testnet, tps)));
        }
    }
    perf_table(out, "chain        offered", None, &rows);
}
