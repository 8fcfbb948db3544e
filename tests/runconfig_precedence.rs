//! The `RunConfig` precedence contract, swept over every field.
//!
//! Three layers of coverage:
//!
//! 1. An in-memory sweep where the spec layer and the CLI layer disagree
//!    in *every* `RunOverlay` field. The resolved configuration is taken
//!    apart with an exhaustive destructure, so adding a field to
//!    `RunConfig` without deciding its precedence here is a compile
//!    error, not a silently untested knob.
//! 2. The same contract through the real surfaces: a parsed YAML spec
//!    (its `execution:`/`sigverify:`/`storage:` sections) against a
//!    parsed CLI invocation.
//! 3. Byte-identity of pinned-seed reports: the same resolved
//!    configuration produces the same results JSON whether the settings
//!    arrived via the spec or via CLI flags, and repeat runs reproduce
//!    it exactly.

use diablo::chains::{
    Chain, ChainParams, Concurrency, ExecMode, FaultPlan, LiveConfig, PruneMode, RunConfig,
    RunOverlay, SigVerify, StorageConfig,
};
use diablo::cli::Invocation;
use diablo::net::{DeploymentConfig, DeploymentKind};
use diablo::sim::SimTime;
use diablo::telemetry::trace::TraceSample;

fn params(gas: u64) -> ChainParams {
    let mut p = ChainParams::standard(
        Chain::Quorum,
        &DeploymentConfig::standard(DeploymentKind::Testnet),
    );
    p.block_gas_limit = gas;
    p
}

fn sig(per_tx_us: f64) -> SigVerify {
    SigVerify {
        per_tx_us,
        batch_fixed_us: 0.0,
        batch_knee: 1.0,
        max_speedup: 1.0,
    }
}

/// A spec layer that sets every field away from its default.
fn spec_layer() -> RunOverlay {
    RunOverlay {
        seed: Some(1001),
        exec_mode: Some(ExecMode::Exact),
        concurrency: Some(Concurrency::Parallel(2)),
        grace_secs: Some(11),
        params: Some(params(1_000_000)),
        faults: FaultPlan::builder()
            .kill_secondary(0, SimTime::from_secs(1))
            .build(),
        sig_verify: Some(sig(3.0)),
        storage: Some(StorageConfig {
            prune: PruneMode::Distance(16),
            segment_blocks: 8,
            hot_pages: 8,
        }),
        trace: Some(TraceSample::Limit(100)),
        live: Some(LiveConfig {
            time_scale: 5.0,
            workers: 2,
        }),
    }
}

/// A CLI layer that disagrees with the spec layer in every field.
fn cli_layer() -> RunOverlay {
    RunOverlay {
        seed: Some(2002),
        exec_mode: Some(ExecMode::Profiled),
        concurrency: Some(Concurrency::Parallel(8)),
        grace_secs: Some(22),
        params: Some(params(2_000_000)),
        faults: FaultPlan::builder()
            .kill_secondary(1, SimTime::from_secs(2))
            .build(),
        sig_verify: Some(sig(7.0)),
        storage: Some(StorageConfig {
            prune: PruneMode::Before(4),
            segment_blocks: 32,
            hot_pages: 128,
        }),
        trace: Some(TraceSample::All),
        live: Some(LiveConfig {
            time_scale: 9.0,
            workers: 6,
        }),
    }
}

#[test]
fn every_field_resolves_cli_over_spec_over_default() {
    let spec = spec_layer();
    let cli = cli_layer();

    // No layers → defaults, for every field.
    assert_eq!(RunConfig::layered(&[]), RunConfig::default());

    // Spec alone wins over the defaults, for every field.
    let mid = RunConfig::layered(&[&spec]);
    assert_eq!(mid.seed, 1001);
    assert_eq!(mid.exec_mode, ExecMode::Exact);
    assert_eq!(mid.concurrency, Concurrency::Parallel(2));
    assert_eq!(mid.grace_secs, 11);
    assert_eq!(mid.params, Some(params(1_000_000)));
    assert_eq!(mid.sig_verify, Some(sig(3.0)));
    assert_eq!(
        mid.storage,
        Some(StorageConfig {
            prune: PruneMode::Distance(16),
            segment_blocks: 8,
            hot_pages: 8,
        })
    );
    assert_eq!(mid.trace, Some(TraceSample::Limit(100)));
    assert_eq!(
        mid.live,
        Some(LiveConfig {
            time_scale: 5.0,
            workers: 2,
        })
    );
    assert!(mid.faults.kill_of_secondary(0).is_some());
    assert!(mid.faults.kill_of_secondary(1).is_none());

    // CLI on top of spec wins, field by field. The exhaustive
    // destructure is the point: a new `RunConfig` field fails to
    // compile until its precedence is asserted here.
    let RunConfig {
        seed,
        exec_mode,
        concurrency,
        grace_secs,
        params: resolved_params,
        faults,
        sig_verify,
        storage,
        trace,
        live,
    } = RunConfig::layered(&[&spec, &cli]);
    assert_eq!(seed, 2002);
    assert_eq!(exec_mode, ExecMode::Profiled);
    assert_eq!(concurrency, Concurrency::Parallel(8));
    assert_eq!(grace_secs, 22);
    assert_eq!(resolved_params, Some(params(2_000_000)));
    assert_eq!(sig_verify, Some(sig(7.0)));
    assert_eq!(
        storage,
        Some(StorageConfig {
            prune: PruneMode::Before(4),
            segment_blocks: 32,
            hot_pages: 128,
        })
    );
    assert_eq!(trace, Some(TraceSample::All));
    assert_eq!(
        live,
        Some(LiveConfig {
            time_scale: 9.0,
            workers: 6,
        })
    );
    // Faults are the one additive field: both layers' schedules apply.
    assert!(faults.kill_of_secondary(0).is_some());
    assert!(faults.kill_of_secondary(1).is_some());
}

#[test]
fn unset_cli_fields_defer_to_the_spec_layer() {
    let spec = spec_layer();
    let cfg = RunConfig::layered(&[&spec, &RunOverlay::none()]);
    assert_eq!(cfg, RunConfig::layered(&[&spec]), "an empty CLI layer changes nothing");
}

const SPEC_WITH_SECTIONS: &str = r#"
workloads:
  - number: 1
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 10 } }
          load:
            0: 5
            2: 0
execution:
  mode: parallel
  threads: 2
sigverify:
  per_tx_us: 3.5
storage:
  prune: "distance=16"
  segment_blocks: 8
"#;

fn cli(args: &[&str]) -> RunOverlay {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    Invocation::parse(&argv)
        .expect("flags parse")
        .overlay()
        .expect("overlay builds")
}

#[test]
fn parsed_spec_and_parsed_flags_obey_the_same_order() {
    let spec = diablo::core::spec::BenchmarkSpec::parse(SPEC_WITH_SECTIONS)
        .expect("spec parses")
        .overlay();

    // CLI silent → the spec's sections decide.
    let cfg = RunConfig::layered(&[&spec, &cli(&[])]);
    assert_eq!(cfg.concurrency, Concurrency::Parallel(2));
    assert_eq!(cfg.sig_verify.map(|s| s.per_tx_us), Some(3.5));
    assert_eq!(cfg.storage.map(|s| s.segment_blocks), Some(8));

    // CLI speaks → it beats the spec, but only in the fields it sets.
    let cfg = RunConfig::layered(&[&spec, &cli(&["--threads=8", "--prune=before=4"])]);
    assert_eq!(cfg.concurrency, Concurrency::Parallel(8), "CLI threads win");
    assert_eq!(
        cfg.storage.map(|s| s.prune),
        Some(PruneMode::Before(4)),
        "CLI prune wins"
    );
    assert_eq!(
        cfg.sig_verify.map(|s| s.per_tx_us),
        Some(3.5),
        "untouched sigverify stays with the spec"
    );

    // Neither speaks → the defaults hold.
    assert_eq!(cfg.seed, RunConfig::default().seed);
    assert_eq!(cfg.grace_secs, RunConfig::default().grace_secs);
}

const TRANSFER_WORKLOAD: &str = r#"
workloads:
  - number: 2
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 50 } }
          load:
            0: 20
            5: 0
"#;

#[test]
fn pinned_seed_reports_are_byte_identical_across_layer_routes() {
    use diablo::core::output::results_json_report;
    use diablo::core::{run_local, BenchmarkOptions};

    // Route A: the execution settings travel in the spec.
    let spec_route = format!("{TRANSFER_WORKLOAD}execution:\n  mode: serial\n");
    let run = |spec: &str, flags: &[&str]| -> String {
        let options = BenchmarkOptions {
            run: cli(flags),
            ..BenchmarkOptions::default()
        };
        let report = run_local(
            Chain::Quorum,
            DeploymentKind::Testnet,
            spec,
            "precedence-transfer",
            &options,
        )
        .expect("run");
        results_json_report(&report)
    };

    let via_spec = run(&spec_route, &["--seed=11", "--exec-mode=exact"]);
    // Route B: the same settings travel as CLI flags over a bare spec.
    let via_cli = run(
        TRANSFER_WORKLOAD,
        &["--seed=11", "--exec-mode=exact", "--execution=serial"],
    );
    assert_eq!(
        via_spec, via_cli,
        "one resolved RunConfig must mean one report, whichever layer carried it"
    );

    // Pinned seed, repeat run: byte-identical.
    let again = run(&spec_route, &["--seed=11", "--exec-mode=exact"]);
    assert_eq!(via_spec, again, "repeat pinned-seed run diverges");

    // A different seed genuinely changes the report (the identity
    // assertions above are not vacuous).
    let other = run(&spec_route, &["--seed=12", "--exec-mode=exact"]);
    assert_ne!(via_spec, other, "seed must reach the run");
}
