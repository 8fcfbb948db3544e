//! Integration: the paper's headline result *shapes*, asserted.
//!
//! The shapes — who wins, what collapses, which DApps are impossible
//! where — are the predicates of the claims ledger (`diablo_bench::ledger`),
//! next to the tables they are about; this file gives each a test name
//! and runs them over one cache, so a run two shapes read executes once.
//! [`CI_ONLY`] names those left to `scripts/ci.sh` (`repro assert all`,
//! release build): each reads runs no shape here reads, seconds apiece
//! in the dev profile — 43 s for this file with them, 34 s without.

use std::sync::LazyLock;

use diablo_bench::cache::Cache;
use diablo_bench::ledger;

static CACHE: LazyLock<Cache> = LazyLock::new(Cache::default);

fn holds(name: &str) {
    let rows = ledger::rows();
    let mut shapes = rows.iter().flat_map(|row| row.shapes());
    let (_, shape) = shapes.find(|(n, _)| *n == name).expect("a shape of the ledger");
    shape(&CACHE).unwrap_or_else(|measured| panic!("{name}: {measured}"));
}

macro_rules! shapes {
    ($($name:ident),* $(,)?) => {
        $(#[test]
        fn $name() {
            holds(stringify!($name));
        })*

        #[test]
        fn every_shape_of_the_ledger_is_listed_once() {
            let tests = [$(stringify!($name)),*];
            for (name, _) in ledger::rows().iter().flat_map(|row| row.shapes()) {
                let lists = [tests.contains(&name), CI_ONLY.contains(&name)];
                assert!(lists[0] != lists[1], "{name}: a test here or in CI_ONLY, one of the two");
            }
        }
    };
}

const CI_ONLY: [&str; 5] = [
    "table1_observed_peaks_match_the_paper",
    "fig2_quorum_tops_uber_and_fifa",
    "fig2_overloaded_dapps_wait_tens_of_seconds",
    "ablation_bounded_pool_inverts_both_quorum_results",
    "faults_quorums_survive_f_crashes_and_halt_past_them",
];

shapes!(
    table4_matches_the_paper,
    fig2_exchange_avalanche_and_quorum_commit_most,
    fig2_youtube_overwhelms_everyone,
    fig2_dota_flattens_everything,
    fig3_solana_clears_800_tps_on_every_configuration,
    fig3_quorum_community_sits_near_500_tps,
    fig3_diem_is_best_locally_and_collapses_geo,
    fig3_algorand_round_time_is_wan_insensitive,
    fig3_datacenter_equals_testnet,
    fig4_leader_based_bft_chains_suffer_most,
    fig4_avalanche_is_not_hurt,
    fig4_ethereum_commits_almost_nothing_at_10k,
    fig5_only_geth_chains_run_the_mobility_dapp,
    fig5_quorum_dominates_the_geth_chains_on_uber,
    fig6_quorum_commits_every_burst,
    fig6_apple_burst_plateaus,
    fig6_google_burst_is_gentle,
    fig6_ethereum_keeps_committing_slowly,
    fig6_avalanche_commits_late_not_never,
    ablation_confirmations_are_solanas_latency,
    ablation_diems_cap_refuses_a_few_signers_load,
    ablation_avalanche_is_throttled_by_its_period,
);
