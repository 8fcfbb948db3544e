//! The ledger and its cache, checked against the files and tests they
//! name and against runs made without them.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::sync::Arc;

use diablo_bench::cache::{consortium, Cache, Key, Load, Run, Variant};
use diablo_bench::cli;
use diablo_bench::ledger::{self, Check, Claim, Row};
use diablo_chains::tx::CallSel;
use diablo_chains::{Chain, ChainParams, Experiment};
use diablo_contracts::{calls, exchange::Stock, DApp};
use diablo_net::{DeploymentConfig, DeploymentKind};
use diablo_workloads::traces;

fn repo() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn rows_and_results_files_are_one_to_one() {
    let rows = ledger::rows();
    let ids: BTreeSet<String> = rows.iter().map(|row| row.id.to_string()).collect();
    assert_eq!(ids.len(), rows.len(), "a row id is used twice");
    let files: BTreeSet<String> = fs::read_dir(repo().join("results"))
        .expect("results/")
        .filter_map(|entry| entry.expect("a directory entry").file_name().into_string().ok())
        .filter_map(|name| name.strip_suffix(".txt").map(String::from))
        .collect();
    assert_eq!(ids, files, "ledger rows vs results/*.txt");
}

#[test]
fn every_claim_is_held_or_owned_up_to() {
    for row in ledger::rows() {
        assert!(!row.claims.is_empty(), "{} claims nothing", row.id);
        for Claim(paper, check) in row.claims {
            match check {
                Check::Shape(name, _) => assert!(!name.is_empty()),
                Check::NotReproduced(why) => assert!(!why.is_empty(), "{}: {paper}", row.id),
                Check::Test(file, test) => {
                    let source = fs::read_to_string(repo().join(file)).expect(file);
                    assert!(source.contains(&format!("fn {test}()")), "no {test} in {file}");
                }
            }
        }
    }
}

#[test]
fn the_cache_returns_what_a_fresh_experiment_does() {
    let cache = Cache::default();
    let (chain, devnet) = (Chain::Algorand, DeploymentKind::Devnet);
    let native = Experiment::new(chain, devnet, traces::constant(500.0, 120));
    assert_eq!(*cache.native(chain, devnet, 500), Run::of(&native.run()));

    let entry = calls::entry_index(DApp::Exchange, "buyGoogle").expect("an Exchange entry");
    let burst = Experiment::new(Chain::Solana, DeploymentKind::Consortium, traces::google())
        .with_dapp(DApp::Exchange)
        .with_call(CallSel { entry, args: [0, 0], argc: 0 });
    assert_eq!(*cache.burst(Chain::Solana, Stock::Google), Run::of(&burst.run()));

    let (chain, deployment, load) = (Chain::Solana, DeploymentKind::Testnet, Load::Native(1_000));
    let mut params = ChainParams::standard(chain, &DeploymentConfig::standard(deployment));
    params.confirmations = 1;
    let fast = Experiment::new(chain, deployment, traces::constant(1_000.0, 120));
    let fast = fast.with_params(params);
    let key = Key { chain, deployment, load, variant: Variant::OneConfirmation };
    let cached = cache.get(key);
    assert_eq!(*cached, Run::of(&fast.run()));
    assert_ne!(*cached, *cache.native(chain, deployment, 1_000));
    assert!(Arc::ptr_eq(&cached, &cache.get(key)), "a second request runs nothing");
}

#[test]
fn two_askers_of_the_same_runs_execute_each_once() {
    let cache = Cache::default();
    let keys = Chain::ALL.map(|chain| consortium(chain, Load::Burst(Stock::Google)));
    let (a, b) = std::thread::scope(|scope| {
        let (a, b) = (scope.spawn(|| cache.get_all(keys)), scope.spawn(|| cache.get_all(keys)));
        (a.join().expect("no panic"), b.join().expect("no panic"))
    });
    for (a, b) in a.iter().zip(&b) {
        assert!(Arc::ptr_eq(a, b), "{a} was executed twice");
    }
}

#[test]
fn assert_names_the_claim_that_failed_and_exits_nonzero() {
    fn solana_is_instant(c: &Cache) -> ledger::Outcome {
        let r = c.burst(Chain::Solana, Stock::Google);
        if r.latency < 1.0 { Ok(()) } else { Err(r.to_string()) }
    }
    let broken = Row {
        id: "broken",
        section: "nowhere",
        title: "A row whose claim does not hold",
        body: |_, out| out.push_str("nothing\n"),
        claims: &[Claim(
            "Solana confirms within a second",
            Check::Shape("solana_is_instant", solana_is_instant),
        )],
    };
    let run = |args: &[&str]| {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let mut out = Vec::new();
        let code = cli::run(&args, &[broken], &mut out).expect("writing to a Vec");
        (code, String::from_utf8(out).expect("utf-8"))
    };
    let (code, out) = run(&["assert", "broken"]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("FAILED  broken::solana_is_instant: Solana:"), "{out}");
    assert_eq!(run(&["assert", "fig3"]).0, 2, "no such row here");
    assert_eq!(run(&[]).0, 2, "nothing to do");
    let (code, out) = run(&["broken"]);
    assert_eq!(code, 0);
    assert!(out.contains("[shape solana_is_instant]"), "{out}");
}
