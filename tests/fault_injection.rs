//! Integration: fault injection semantics across the six chains.

use diablo::chains::{Chain, Experiment, FaultPlan, RunResult};
use diablo::net::{DeploymentConfig, DeploymentKind};
use diablo::sim::SimTime;
use diablo::workloads::traces;

fn run(chain: Chain, faults: FaultPlan) -> RunResult {
    Experiment::new(chain, DeploymentKind::Devnet, traces::constant(300.0, 60))
        .with_faults(faults)
        .run()
}

fn tail_commits(r: &RunResult, from_sec: usize) -> u64 {
    let series = r.commit_series();
    (from_sec..series.seconds()).map(|s| series.get(s)).sum()
}

#[test]
fn bft_chains_tolerate_f_crashes() {
    let f = DeploymentConfig::standard(DeploymentKind::Devnet).byzantine_f();
    for chain in [Chain::Quorum, Chain::Diem, Chain::Algorand] {
        let faulted = run(
            chain,
            FaultPlan::builder()
                .crash(0..f, SimTime::from_secs(30), None)
                .build(),
        );
        let baseline = run(chain, FaultPlan::none());
        let (b, x) = (tail_commits(&baseline, 35), tail_commits(&faulted, 35));
        assert!(
            x as f64 > b as f64 * 0.5,
            "{chain} should survive f crashes: {b} vs {x} tail commits"
        );
    }
}

#[test]
fn quorum_dependent_chains_halt_past_f_crashes() {
    let f = DeploymentConfig::standard(DeploymentKind::Devnet).byzantine_f();
    for chain in [Chain::Quorum, Chain::Diem, Chain::Algorand] {
        let r = run(
            chain,
            FaultPlan::builder()
                .crash(0..f + 1, SimTime::from_secs(30), None)
                .build(),
        );
        // Submissions after the fault can never commit.
        let late = r
            .records
            .iter()
            .filter(|rec| rec.submitted >= SimTime::from_secs(32))
            .filter(|rec| rec.latency_secs().is_some())
            .count();
        assert_eq!(late, 0, "{chain} must halt once the quorum is lost");
    }
}

#[test]
fn eventual_chains_keep_committing_past_f_crashes() {
    let f = DeploymentConfig::standard(DeploymentKind::Devnet).byzantine_f();
    for chain in [Chain::Solana, Chain::Avalanche] {
        let r = run(
            chain,
            FaultPlan::builder()
                .crash(0..f + 1, SimTime::from_secs(30), None)
                .build(),
        );
        assert!(
            tail_commits(&r, 35) > 0,
            "{chain} (eventual consistency) should keep making progress"
        );
    }
}

#[test]
fn network_slowdown_raises_latency() {
    let slow = run(
        Chain::Diem,
        FaultPlan::builder()
            .slowdown(SimTime::from_secs(0), 6.0)
            .build(),
    );
    let fast = run(Chain::Diem, FaultPlan::none());
    assert!(
        slow.avg_latency_secs() > fast.avg_latency_secs(),
        "6x slower network must not be faster: {} vs {}",
        slow.avg_latency_secs(),
        fast.avg_latency_secs()
    );
}

#[test]
fn bft_chains_stall_then_resume_after_recovery() {
    // Crash f + 1 of the quorum at t = 20 s and bring them back at
    // t = 35 s: a BFT chain must commit nothing while the quorum is
    // lost, then resume once the recovered nodes caught up.
    let f = DeploymentConfig::standard(DeploymentKind::Devnet).byzantine_f();
    for chain in [Chain::Quorum, Chain::Diem] {
        let r = run(
            chain,
            FaultPlan::builder()
                .crash(0..f + 1, SimTime::from_secs(20), Some(SimTime::from_secs(35)))
                .build(),
        );
        // Nothing decided inside the outage (submissions from the
        // window only commit after recovery, if at all).
        let decided_in_outage = r
            .records
            .iter()
            .filter_map(|rec| rec.decided)
            .filter(|d| *d >= SimTime::from_secs(22) && *d < SimTime::from_secs(35))
            .count();
        assert_eq!(
            decided_in_outage, 0,
            "{chain} must commit nothing while > f nodes are down"
        );
        // The tail (well past recovery + catch-up) commits again.
        assert!(
            tail_commits(&r, 45) > 0,
            "{chain} must resume committing after the crashed nodes rejoin"
        );
    }
}

#[test]
fn partitions_stall_bft_quorums_for_their_duration() {
    let cfg = DeploymentConfig::standard(DeploymentKind::Devnet);
    let n = cfg.node_count();
    let f = cfg.byzantine_f();
    // Split off f + 1 nodes: neither side keeps a 2f + 1 quorum ⇒ the
    // committing (majority) component still has at most n - (f + 1)
    // nodes, which for n = 3f + 1 is exactly 2f — below quorum.
    let (minority, majority) = (0..f + 1, f + 1..n);
    for chain in [Chain::Quorum, Chain::Diem] {
        let r = run(
            chain,
            FaultPlan::builder()
                .partition(
                    minority.clone(),
                    majority.clone(),
                    SimTime::from_secs(20),
                    SimTime::from_secs(40),
                )
                .build(),
        );
        let decided_inside = r
            .records
            .iter()
            .filter_map(|rec| rec.decided)
            .filter(|d| *d >= SimTime::from_secs(22) && *d < SimTime::from_secs(40))
            .count();
        assert_eq!(
            decided_inside, 0,
            "{chain} has no quorum on either side of the partition"
        );
        assert!(
            tail_commits(&r, 45) > 0,
            "{chain} must resume once the partition heals"
        );
    }
}

#[test]
fn message_loss_degrades_but_does_not_halt() {
    let lossy = run(
        Chain::Quorum,
        FaultPlan::builder()
            .loss(0.3, SimTime::from_secs(0), SimTime::from_secs(60))
            .build(),
    );
    let clean = run(Chain::Quorum, FaultPlan::none());
    assert!(
        lossy.committed() > 0,
        "30% loss forces retransmissions, not a halt"
    );
    assert!(
        lossy.avg_latency_secs() > clean.avg_latency_secs(),
        "lost consensus messages must cost latency: {} vs {}",
        lossy.avg_latency_secs(),
        clean.avg_latency_secs()
    );
}

#[test]
fn corruption_rejects_submissions_at_the_client() {
    let r = run(
        Chain::Quorum,
        FaultPlan::builder()
            .corrupt(0.9, SimTime::from_secs(10), SimTime::from_secs(50))
            // One attempt: a corrupted submission fails immediately.
            .retry(diablo::chains::RetryPolicy {
                attempts: 1,
                ..Default::default()
            })
            .build(),
    );
    let rejected = r
        .records
        .iter()
        .filter(|rec| rec.status == diablo::chains::TxStatus::Rejected)
        .count();
    assert!(
        rejected > 0,
        "corrupted submissions must surface as client-side rejections"
    );
    // Rejections only happen inside the corruption window.
    assert!(r
        .records
        .iter()
        .filter(|rec| rec.status == diablo::chains::TxStatus::Rejected)
        .all(|rec| rec.submitted >= SimTime::from_secs(10)
            && rec.submitted < SimTime::from_secs(50)));
}

#[test]
fn retries_ride_out_a_short_corruption_burst() {
    // With retries enabled, a corrupted submission is retried past the
    // default policy's backoff; with a single attempt it is lost.
    let one_shot = run(
        Chain::Quorum,
        FaultPlan::builder()
            .corrupt(0.5, SimTime::from_secs(10), SimTime::from_secs(50))
            .retry(diablo::chains::RetryPolicy {
                attempts: 1,
                ..Default::default()
            })
            .build(),
    );
    let retried = run(
        Chain::Quorum,
        FaultPlan::builder()
            .corrupt(0.5, SimTime::from_secs(10), SimTime::from_secs(50))
            .retry(diablo::chains::RetryPolicy::default())
            .build(),
    );
    assert!(
        retried.committed() > one_shot.committed(),
        "retries must recover corrupted submissions: {} vs {}",
        retried.committed(),
        one_shot.committed()
    );
}

#[test]
fn faultless_plan_changes_nothing() {
    let a = run(Chain::Quorum, FaultPlan::none());
    let b = Experiment::new(
        Chain::Quorum,
        DeploymentKind::Devnet,
        traces::constant(300.0, 60),
    )
    .run();
    assert_eq!(a.committed(), b.committed());
    assert_eq!(a.avg_latency_secs(), b.avg_latency_secs());
}
