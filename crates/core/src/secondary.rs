//! The Secondary role (§4).
//!
//! Secondaries are responsible for presigning transactions and executing
//! the workload. Each Secondary spawns the worker threads ("clients")
//! the Primary assigns to it; each client expands its behaviors' load
//! curves into individually timed interactions, encodes them through
//! the chain adapter (presigning) and triggers them.

use diablo_workloads::{spread, Workload};

use crate::abstraction::{Connector, ConnectorError, Interaction, ResourceSpec};
use crate::spec::{BenchmarkSpec, InteractionSpec, WorkloadGroup};

/// Statistics of one planning pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Clients created.
    pub clients: u32,
    /// Interactions encoded and triggered.
    pub interactions: u64,
}

/// Resolves the workload group and group-local index of a global client
/// index.
fn locate_client(spec: &BenchmarkSpec, global: u32) -> Option<(&WorkloadGroup, u32)> {
    let mut base = 0;
    for group in &spec.workloads {
        if global < base + group.number {
            return Some((group, global - base));
        }
        base += group.number;
    }
    None
}

/// Declares the resources a spec needs (accounts, contracts) through
/// the connector — the Primary does this once before dispatching.
pub fn declare_resources(
    spec: &BenchmarkSpec,
    connector: &mut dyn Connector,
) -> Result<(), ConnectorError> {
    for group in &spec.workloads {
        for behavior in &group.behaviors {
            match &behavior.interaction {
                InteractionSpec::Transfer { accounts, .. } => {
                    connector.create_resource(&ResourceSpec::Accounts { number: *accounts })?;
                }
                InteractionSpec::Invoke {
                    accounts, contract, ..
                } => {
                    connector.create_resource(&ResourceSpec::Accounts { number: *accounts })?;
                    connector.create_resource(&ResourceSpec::Contract {
                        name: contract.clone(),
                    })?;
                }
            }
        }
    }
    Ok(())
}

/// Plans the clients `range.0 .. range.1` (global indices) of `spec`:
/// creates each client, expands its behaviors into timed interactions
/// and triggers them on the connector.
///
/// Interactions are deterministic in the client index, so two
/// Secondaries planning disjoint ranges of the same spec produce exactly
/// the partition the Primary expects.
pub fn plan_range(
    spec: &BenchmarkSpec,
    range: (u32, u32),
    connector: &mut dyn Connector,
) -> Result<PlanStats, ConnectorError> {
    let mut stats = PlanStats::default();
    for global in range.0..range.1 {
        let (group, _) = locate_client(spec, global)
            .ok_or(ConnectorError::UnknownClient { client: global })?;
        let client = connector.create_client(&group.view)?;
        stats.clients += 1;
        let curves: Vec<Workload> =
            group.behaviors.iter().map(|b| b.to_workload("client")).collect();
        connector.reserve(client, curves.iter().map(Workload::total_txs).sum::<u64>() as usize);
        for (bi, (behavior, curve)) in group.behaviors.iter().zip(&curves).enumerate() {
            // Counter seeded per (client, behavior) so account usage is
            // deterministic and spread.
            let mut counter = (global as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(bi as u64)
                % 100_000;
            for (tick, count) in curve.tick_counts() {
                for at in spread(tick, count, global) {
                    let interaction = build_interaction(&behavior.interaction, counter);
                    counter += 1;
                    let encoded = connector.encode(&interaction, at)?;
                    connector.trigger(client, encoded)?;
                    stats.interactions += 1;
                }
            }
        }
    }
    Ok(stats)
}

/// Materializes the `counter`-th interaction of a behavior.
fn build_interaction(spec: &InteractionSpec, counter: u64) -> Interaction {
    match spec {
        InteractionSpec::Transfer { accounts, amount } => {
            let pool = (*accounts).max(2) as u64;
            let from = (counter % pool) as u32;
            let to = ((counter + 1) % pool) as u32;
            Interaction::Transfer {
                from,
                to,
                amount: *amount,
            }
        }
        InteractionSpec::Invoke {
            accounts,
            contract,
            function,
            args,
        } => Interaction::Invoke {
            from: (counter % (*accounts).max(1) as u64) as u32,
            contract: contract.clone(),
            function: function.clone(),
            args: args.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::SimConnector;
    use crate::spec::PAPER_DOTA_SPEC;

    #[test]
    fn planning_the_paper_spec_counts_match() {
        let spec = BenchmarkSpec::parse(PAPER_DOTA_SPEC).unwrap();
        let mut conn = SimConnector::new("test");
        declare_resources(&spec, &mut conn).unwrap();
        let stats = plan_range(&spec, (0, 3), &mut conn).unwrap();
        assert_eq!(stats.clients, 3);
        // Each client: 4432 × 50 + 4438 × 70 transactions.
        let per_client = 4432 * 50 + 4438 * 70;
        assert_eq!(stats.interactions, 3 * per_client);
        let plan = conn.take_plan();
        assert_eq!(plan.len() as u64, 3 * per_client);
        // Time-sorted and inside the 120 s window.
        assert!(plan.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(plan.last().unwrap().at < diablo_sim::SimTime::from_secs(120));
    }

    #[test]
    fn disjoint_ranges_partition_the_work() {
        let spec = BenchmarkSpec::parse(PAPER_DOTA_SPEC).unwrap();
        let mut whole = SimConnector::new("whole");
        declare_resources(&spec, &mut whole).unwrap();
        plan_range(&spec, (0, 3), &mut whole).unwrap();
        let all = whole.take_plan();

        let mut parts = Vec::new();
        for r in [(0, 1), (1, 2), (2, 3)] {
            let mut c = SimConnector::new("part");
            declare_resources(&spec, &mut c).unwrap();
            plan_range(&spec, r, &mut c).unwrap();
            parts.extend(c.take_plan());
        }
        parts.sort_by_key(|t| t.at);
        assert_eq!(all.len(), parts.len());
        // Same submission times (senders/seqs may renumber per part).
        for (a, b) in all.iter().zip(&parts) {
            assert_eq!(a.at, b.at);
        }
    }

    #[test]
    fn out_of_range_client_errors() {
        let spec = BenchmarkSpec::parse(PAPER_DOTA_SPEC).unwrap();
        let mut conn = SimConnector::new("test");
        declare_resources(&spec, &mut conn).unwrap();
        assert_eq!(
            plan_range(&spec, (2, 4), &mut conn),
            Err(ConnectorError::UnknownClient { client: 3 })
        );
    }

    #[test]
    fn transfer_interactions_rotate_accounts() {
        let spec = InteractionSpec::Transfer {
            accounts: 5,
            amount: 2,
        };
        let mut froms = Vec::new();
        for c in 0..10 {
            match build_interaction(&spec, c) {
                Interaction::Transfer { from, to, amount } => {
                    assert_ne!(from, to);
                    assert_eq!(amount, 2);
                    froms.push(from);
                }
                other => panic!("wrong interaction {other:?}"),
            }
        }
        froms.sort_unstable();
        froms.dedup();
        assert_eq!(froms.len(), 5, "all pool accounts used");
    }
}
