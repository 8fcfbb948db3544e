//! Fault tolerance on a custom deployment.
//!
//! Combines three extension features: a custom setup (an explicit node
//! list instead of one of the paper's five configurations), a synthetic
//! diurnal workload, and fault injection — crash exactly `f` nodes at
//! mid-run, then `f + 1`, and watch a deterministic BFT chain tolerate
//! the first and halt on the second.
//!
//! Run with: `cargo run --release --example fault_tolerance`

use diablo::chains::{Chain, Experiment, FaultPlan};
use diablo::net::{DeploymentConfig, DeploymentKind, InstanceType};
use diablo::sim::{DetRng, SimTime};
use diablo::workloads::synth;

fn main() {
    // A 13-node geo-spread consortium (f = 4).
    let config = DeploymentConfig::spread(DeploymentKind::Devnet, 13, InstanceType::C52xlarge);
    let f = config.byzantine_f();
    println!(
        "custom deployment: {} nodes over {} regions, f = {f}\n",
        config.node_count(),
        config.region_count()
    );

    // A day-curve workload with Poisson jitter.
    let mut rng = DetRng::new(2024);
    let workload = synth::poissonize(&synth::diurnal(400.0, 200.0, 60, 120), &mut rng);
    println!("workload: {workload}\n");

    for (label, faults) in [
        ("no faults", FaultPlan::none()),
        (
            "crash f at t=60s",
            FaultPlan::builder()
                .crash(0..f, SimTime::from_secs(60), None)
                .build(),
        ),
        (
            "crash f+1 at t=60s",
            FaultPlan::builder()
                .crash(0..f + 1, SimTime::from_secs(60), None)
                .build(),
        ),
        (
            "crash f+1, heal 90s",
            FaultPlan::builder()
                .crash(
                    0..f + 1,
                    SimTime::from_secs(60),
                    Some(SimTime::from_secs(90)),
                )
                .build(),
        ),
    ] {
        let r = Experiment::new(Chain::Quorum, DeploymentKind::Devnet, workload.clone())
            .with_config(config.clone())
            .with_faults(faults)
            .run();
        let series = r.commit_series();
        let before: u64 = (0..60).map(|s| series.get(s)).sum();
        let after: u64 = (60..series.seconds()).map(|s| series.get(s)).sum();
        println!(
            "{label:<20} commits before fault: {before:>6}, after: {after:>6}  ({:.1}% total)",
            r.commit_ratio() * 100.0
        );
    }
    println!(
        "\nIBFT tolerates f Byzantine nodes; one more and the quorum is gone — until \
         the crashed nodes rejoin and catch up."
    );
}
