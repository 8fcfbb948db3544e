//! What `QuorumModel` tells telemetry is a function of the deployment,
//! not of how the model stores it: the link-delay histogram equals one
//! record per ordered node pair, and every query reports the same bytes
//! and one phase sample per call.
//!
//! Telemetry is process-global, so this file holds a single test (one
//! test binary, one thread).

use diablo_net::{DeploymentConfig, DeploymentKind, InstanceType, NetworkModel, QuorumModel};
use diablo_telemetry::{record, reset, snapshot};

#[test]
fn telemetry_matches_the_per_node_model() {
    if !diablo_telemetry::enabled() {
        return;
    }
    let n: u64 = 200;
    let cfg = DeploymentConfig::spread(
        DeploymentKind::Community,
        n as usize,
        InstanceType::C5Xlarge,
    );

    reset();
    let model = QuorumModel::new(&cfg, &NetworkModel::default());
    let built = snapshot();
    let links = built
        .histogram("net.link.delay_us")
        .expect("link profile recorded");

    // The same profile, one `record!` per ordered pair of distinct nodes.
    reset();
    for i in 0..n as usize {
        for j in (0..n as usize).filter(|&j| j != i) {
            record!("net.link.delay_us", (model.delay_secs(i, j) * 1e6) as u64);
        }
    }
    let singles = snapshot();
    assert_eq!(links.count, n * (n - 1));
    assert_eq!(Some(links), singles.histogram("net.link.delay_us"));

    // Per call: bytes on the wire and one sample of the phase's length.
    let (leader, bytes) = (42, 250_000);
    let phase_sample = |name: &str| {
        let snap = snapshot();
        let h = snap.histogram(name).expect("phase recorded").clone();
        assert_eq!(h.count, 1, "{name}");
        h.sum
    };

    reset();
    model.broadcast_all(leader, bytes);
    model.broadcast_quorum(leader, bytes);
    let snap = snapshot();
    assert_eq!(
        snap.counter("net.bytes.proposals"),
        Some(2 * bytes * (n - 1))
    );
    assert_eq!(snap.counter("net.bytes.votes"), None);

    reset();
    let linear = model.linear_phase(leader, bytes);
    let snap = snapshot();
    assert_eq!(snap.counter("net.bytes.proposals"), Some(bytes * (n - 1)));
    assert_eq!(snap.counter("net.bytes.votes"), Some(256 * (n - 1)));
    assert_eq!(phase_sample("net.phase.linear_us"), linear.as_micros());

    reset();
    let commit = model.ibft_commit(leader, bytes);
    let snap = snapshot();
    assert_eq!(snap.counter("net.bytes.proposals"), Some(bytes * (n - 1)));
    assert_eq!(snap.counter("net.bytes.votes"), Some(2 * 256 * n * (n - 1)));
    assert_eq!(phase_sample("net.phase.ibft_commit_us"), commit.as_micros());

    reset();
    let gossip = model.gossip_all(leader, 8, bytes);
    assert_eq!(
        snapshot().counter("net.bytes.gossip"),
        Some(bytes * (n - 1))
    );
    assert_eq!(phase_sample("net.phase.gossip_us"), gossip.as_micros());
}
