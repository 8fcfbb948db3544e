//! Microbenchmark: the analytic quorum-latency model.
//!
//! IBFT commit latency involves two all-to-all order-statistic rounds;
//! this is computed once per block, so its cost bounds the block rate
//! the simulator can sustain. The model works on region classes, so the
//! `ibft_commit_{10,50,200,1000}_nodes` rows should read flat in `n`.

use diablo_testkit::bench::{black_box, Bench};

use diablo_net::{DeploymentConfig, DeploymentKind, InstanceType, NetworkModel, QuorumModel};

fn model_for(kind: DeploymentKind) -> QuorumModel {
    let cfg = DeploymentConfig::standard(kind);
    QuorumModel::new(&cfg, &NetworkModel::deterministic())
}

fn main() {
    let mut b = Bench::suite("quorum_model");

    for kind in [DeploymentKind::Devnet, DeploymentKind::Consortium] {
        b.bench(&format!("quorum/construct/{}", kind.name()), || {
            black_box(model_for(kind))
        });
    }

    for nodes in [10, 50, 200, 1_000] {
        let cfg =
            DeploymentConfig::spread(DeploymentKind::Community, nodes, InstanceType::C5Xlarge);
        let spread = QuorumModel::new(&cfg, &NetworkModel::deterministic());
        b.bench(&format!("quorum/phase/ibft_commit_{nodes}_nodes"), || {
            black_box(spread.ibft_commit(3, 250_000))
        });
    }
    let consortium = model_for(DeploymentKind::Consortium);
    b.bench("quorum/phase/hotstuff_commit_200_nodes", || {
        black_box(consortium.hotstuff_commit(42, 250_000))
    });
    b.bench("quorum/phase/gossip_200_nodes", || {
        black_box(consortium.gossip_all(42, 8, 250_000))
    });

    b.finish();
}
